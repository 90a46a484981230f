// Package server is the simulation service behind cmd/sdvd: a
// long-running daemon that executes simulation and experiment specs on a
// bounded job scheduler, caches per-run results by content address and
// streams progress to clients.
//
// # API surface
//
//	POST   /v1/jobs              submit a JobSpec (?wait=1 blocks until resolved)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status + result when done
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/jobs/{id}/events  SSE progress stream (history replay + live)
//	GET    /v1/experiments       experiment ids and titles (sdvexp -list)
//	GET    /v1/workloads         benchmark suite
//	GET    /v1/configs           configuration matrix
//	GET    /healthz              liveness + uptime
//	GET    /metrics              Prometheus-style counters and gauges
//
// # Exactness
//
// A job executes on the same experiments.Runner machinery as the batch
// CLIs, with the same normalized defaults, so a served result is
// byte-identical to a local run of the same spec (the CI server smoke job
// diffs `sdvexp -server` against local `sdvexp`). Results are cached per
// simulation run under experiments.RunKey — a SHA-256 over every
// configuration field, the benchmark and its definition digest, scale,
// seed, the result schema and the module version — so nothing
// built from different code, inputs or definitions is ever served as
// equal, and execution shape never splits a run.
//
// # Caching and deduplication
//
// Every job is a render over run results: its Runner asks the Cache for
// each run before recording anything, so jobs that share runs (Figures
// 11 and 12, or a sim job inside a figure's sweep) simulate each run once
// and a repeated job simulates nothing. The Cache is an in-memory LRU of
// decoded statistics bounded by entries and encoded bytes, with optional
// disk persistence (Options.CacheDir) that survives restarts. Identical
// in-flight runs are deduplicated across jobs (singleflight). Recorded
// benchmark traces are kept in a separate artifact store scoped by
// (scale, seed) and definition digest, so a job that
// does need a simulation replays instead of re-recording.
//
// # Cancellation
//
// Every job owns a context. DELETE cancels it; a synchronous (?wait=1)
// submission is additionally tied to its HTTP request, so an abandoned
// request stops burning workers: the context is plumbed through
// experiments.Runner into the cycle loop of every in-flight simulation
// (pipeline.Simulator.SetContext) and into trace recording
// (trace.Recorder.SetContext). Cancelled runs are evicted from the
// runner memo and the cache singleflight, never poisoning later
// requests.
package server
