// Command sdvbench is the repository's benchmark: one tool that measures
// the simulator and the sdvd daemon end to end and layer by layer, checks
// every output against golden digests, and compares two sets of runs.
//
// # Running
//
//	go run ./cmd/sdvbench -seed 1                          # all workloads, untraced
//	go run ./cmd/sdvbench -workload paper-sweep -seed 3    # one workload
//	go run ./cmd/sdvbench -trace DIR                       # traced run + layer ladder
//	go run ./cmd/sdvbench -seed 3 -out A.json              # append runs to a result file
//	go run ./cmd/sdvbench compare A.json B.json            # judge B against A
//	sh cmd/sdvbench/run.sh --workload served-warm --seed 3 --seconds 10 --trace 0
//
// run.sh is the BENCHMARK.json command: it builds the harness from the
// checkout in the current directory, keeping the binary, the Go build
// cache and all temporary files under .bench_build. Run every mode from
// the repository root; workload specs are read from examples/workloads
// (-specs). The last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// BENCHMARK.json untraced, its per-layer metrics with -trace. The exit code
// is 0 only when every output verified.
//
// Every pass of a workload runs in a fresh child process of the harness,
// so it starts cold and its peak RSS is its own; further children only set
// the workload up and exit, so that each run has several set-ups to take
// the median of (nine, or three where set-up primes a daemon). A child
// uses GOMAXPROCS = Workers = min(nproc, 2); every load loop is closed,
// with at most two client goroutines and two keep-alive connections. The
// seed feeds the workload data (seed 2 is held out from tuning). Run
// length is fixed by pass count, or by -seconds for served-warm, so it is
// the same on every commit. -scale and -passes shrink a run for smoke
// tests; golden digests are checked only at the benchmark scales.
//
// # Workloads
//
//	paper-sweep  2 passes; each a fresh Runner running every experiments.All() figure at
//	             scale 200k, as `sdvexp -exp all` does. What researchers run; about 80%
//	             of it is the pipeline cycle loop, and six or more configurations replay
//	             each recording, so gang sharing is exercised.
//	served-cold  1 pass: a fresh in-process daemon on 127.0.0.1:0 with an empty CacheDir,
//	             one client submitting the 14 experiment jobs serially with ?wait=1 at
//	             200k, as `sdvexp -server` does. The same simulation work through the
//	             service layer, so pass_s(served-cold)/pass_s(paper-sweep) is the
//	             "daemon within 10% of local" ratio; it writes the result and trace disk
//	             tiers, exercising the codec. A daemon restarted on the same directory
//	             must then serve every job from disk unchanged.
//	served-warm  setup primes a memory-only daemon at scale 25k with the 14 experiment jobs
//	             and 72 sim jobs (12 benchmarks x the six Fig. 11 configurations); then two
//	             clients cycle the 86 jobs in seed-shuffled order for -seconds. Every
//	             request is a cache hit, isolating HTTP, Normalize, keying, lookup, the
//	             job registry and JSON. A pass is one client's cycle through all 86 jobs.
//	single-runs  4 passes; each a fresh Runner doing RunAll of 4w-1pV over the 12 built-ins
//	             plus the 10 generated workloads of examples/workloads at scale 1M. One
//	             configuration per recording, so nothing is shared and recording is about
//	             45% of the work; the pointer-chase and gather specs load the mem model
//	             unlike the built-in suite.
//
// # End-to-end metrics
//
// BENCHMARK.json gates the two metrics every workload has and whose
// run-to-run spread stays inside their bound:
//
//	setup_s      s, lower, bound 25%, and at least 0.05 s in compare
//	             median exec-to-ready of the run's children: process start and the
//	             Runner (paper-sweep); spec registration and the Runner (single-runs);
//	             the daemon up to its first /healthz 200 (served-cold); that plus
//	             priming all 86 jobs (served-warm)
//	peak_rss_mb  MB, lower, bound 10%
//	             median Maxrss (Getrusage) of the run's measuring children
//
// A set-up of a few milliseconds spreads by up to 28% of its median from
// run to run, so compare lets setup_s worsen by 0.05 s before it counts;
// BENCHMARK.json cannot hold that floor, so its bound is the largest it
// allows. A simulator or service slowdown of more than 25% still shows in
// served-warm's setup_s, which primes 86 jobs.
//
// These are printed, recorded in result files and judged by compare with
// a 10% bound, but not gated:
//
//	pass_s           s, lower           median wall time of a pass; in two sets of ten
//	                                    seeded runs on a shared 2-vCPU host its
//	                                    interquartile spread was 8-21% of the median,
//	                                    so it is a per-layer metric of traced runs
//	sim_minst_per_s  Minst/s, higher    single-runs: committed Minst per second of pass
//	                                    wall, median over passes
//	jobs_per_s       jobs/s, higher     served-warm: requests completed per second
//	latency_p50_ms,  ms, lower          served-warm: request latency, with its sample
//	latency_p99_ms                      count
//	failed_frac      frac, lower        failed over attempted operations, where errors,
//	                                    non-2xx responses and output mismatches fail; any
//	                                    increase is worse
//
// # Per-layer metrics
//
// A traced run (-trace) runs each workload's pass three times, each in a
// fresh child: untraced, with spans recorded in memory around every
// harness call (passes, experiments, RunAll, each HTTP job, daemon start
// and restart), and untraced again; harness.trace_overhead_frac compares
// the traced pass with the others, and pass_s is their median. Then one
// more child runs the layer ladder: on the 12 built-ins at scale 200k it
// calls each layer directly, in order, on the same inputs. The ladder does
// not depend on the workload, so it runs once per traced invocation and
// its metrics are reported once; with one workload, as the BENCHMARK.json
// command runs it, every per-layer metric is therefore reported. At exit
// DIR holds spans.json (every span with its parent and self time, the span
// minus its children's cover, per workload and for the ladder),
// layers.json and the ladder's CPU profile. Names are <module>.<metric>;
// the columns say which end-to-end number each should move, on which
// workload, and where no change is expected. The ladder's rows are one
// measurement, not one per workload: "no change on" names the workloads
// whose own numbers should not move.
//
//	module           metrics                                  moves -> on                        no change on
//	wspec, workload  wspec.compile_s, workload.build_s        setup_s, pass_s -> single-runs     served-warm
//	emu              emu.run_s, emu.minst_per_s               the floor for recording            served-warm
//	trace (record)   trace.record_s, trace.record_minst_per_s pass_s -> single-runs, then        served-warm
//	                 trace.record_over_emu_x                    paper-sweep
//	trace (codec)    trace.encode_s, trace.decode_s,          pass_s -> served-cold              paper-sweep,
//	                 trace.bytes_per_inst                                                          single-runs
//	trace (decoded)  trace.block_decode_s (first walk of a    pass_s -> paper-sweep              served-warm
//	                 fresh Decoded), trace.shared_walk_s
//	pipeline         pipeline.run_s, pipeline.minst_per_s     pass_s -> paper-sweep,             served-warm
//	                 and .<cfg> for the six Fig. 11 configs,  sim_minst_per_s -> single-runs
//	                 pipeline.allocs_per_run,
//	                 pipeline.uop_recycle_ratio (HotStats),
//	                 pipeline.stage.<fn>_frac
//	experiments      experiments.self_s (RunAll wall at one   pass_s -> paper-sweep,             served-warm
//	                 worker on the 72-run Fig. 11 set minus     served-cold
//	                 the direct build+record+pipeline time),
//	                 experiments.parallel_eff (that layer
//	                 time / (wall x workers) at all workers)
//	server           server.healthz_us (transport floor),     pass_s -> served-cold;             paper-sweep,
//	                 server.warm_self_us (warm p50 - healthz),  jobs_per_s, latency ->             single-runs
//	                 server.queue_wait_s, .cache_lookup_s,      served-warm
//	                 .compute_s (/metrics histogram sums),
//	                 server.sims_per_pass,
//	                 server.recordings_per_pass, .restart_s,
//	                 server.result_bytes, .cache_hit_ratio
//	model            model.ipc.<cfg> (Spec95 geomean),        none: exact for a seed, any        all
//	                 model.l1d_miss_rate,                     change means results changed
//	                 model.branch_mispredict_rate,
//	                 model.validation_frac,
//	                 model.validation_failure_ratio,
//	                 model.elems_used_ratio (used/computed),
//	                 model.wide_bus_unused_frac,
//	                 model.port_occupancy
//	per workload     pass_s, runtime.alloc_mb,                pass_s, peak_rss_mb                -
//	                 runtime.gc_cycles (of the first
//	                 untraced pass), harness.trace_overhead_frac
//
// The model rows follow arXiv:2302.01131's split between speculative and
// architectural state: unused vector elements, validation failures and
// unused wide-bus words are the modelled machine's wasted speculative
// work, so a speed-up that changes what the machine does shows. The model
// is unvalidated against hardware, so no error figure is given.
// pipeline.stage.<fn>_frac is the cumulative CPU share, from
// `go tool pprof -top -cum` over the ladder's pipeline phase, of each
// //sdv:hotpath function: step, fetch, decode, issueScalar, issueVector,
// commit, Journal.undoNewest, RegFile.Sweep and Cursor.NextRef. The
// ladder's daemon serves the 14 experiment jobs at served-warm's scale
// (25k), which keeps a traced run well inside three minutes; its tables
// are checked against served-warm's golden digests, and the Runner's
// results must equal the direct pipeline calls'. Both can beat the sum of
// direct layer calls (experiments.self_s < 0, experiments.parallel_eff >
// 1), because the Runner records a benchmark while simulating its first
// configuration. experiments.sims_per_pass is not reported: the Runner's
// simulation count is outside the stable surface below. A counter the
// daemon no longer exposes, or a function absent from the profile, is
// reported as missing (value 0), not as a failure.
//
// # Correctness
//
// testdata/golden.json holds sha256 digests for seeds 1 and 2 at the
// benchmark scales: the rendered tables of paper-sweep and served-cold
// (byte-identical to `sdvexp` output), the primed results of served-warm
// and the stats.Sim JSON of every single-runs run. With any other seed the
// harness prints "golden: unverified" and checks instead that every pass
// (each in its own child), the served-cold restart and every warm response
// reproduce the first output exactly. A mismatch counts as a failed
// operation and makes the exit code 1. Regenerate the file with
// -golden-out only for a change meant to alter simulated results.
//
// # Comparing
//
// -out appends each run (every pass, set-up and Maxrss, all metrics, the
// command line, Go version, nproc and git commit) to a result file and
// refreshes its per-workload medians and quartiles, so runs of two
// commits can be interleaved, alternating which side runs first:
//
//	for s in 1 2 3 4 5 6 7 8 9 10; do
//	  if [ $((s % 2)) = 1 ]; then first=A second=B; else first=B second=A; fi
//	  (cd $first && go run ./cmd/sdvbench -seed $s -out ../$first.json)
//	  (cd $second && go run ./cmd/sdvbench -seed $s -out ../$second.json)
//	done
//	go run ./cmd/sdvbench compare A.json B.json
//
// compare judges each (workload, metric) over the untraced runs that
// verified, pairing runs in order: "better" only when B wins at least 9 of
// 10 of at least 10 pairs, its median is better than A's by more than A's
// quartile spread, and no more operations failed; "worse" when B's median
// is worse than A's by more than the bound (for setup_s, by more than
// max(25%, 0.05 s)); "unresolved" when A's own quartile spread exceeds that
// allowance, unless every B run beats every A run; "unchanged" otherwise.
// failed_frac is worse on any increase.
//
// # Stable surface
//
// Later changes may not edit the benchmark, and the roadmap deletes
// several execution shapes, so the harness leaves every shape option at
// its default and calls only what survives those plans:
// experiments.NewRunner(Options{Scale, Seed, Workers}), All,
// Experiment.Run, Table.Render, Runner.RunAll; workload.Names/Get/Build,
// wspec.LoadAndRegister, config.MustNamed; emu.New, Machine.Run;
// trace.NewRecorder/Finish/RecordSlack/EncodeBytes/DecodeBytes/NewDecoded/
// Cursor; pipeline.NewFromSource, Simulator.Run/HotStats, stats.Sim;
// server.New(Options{CacheDir, SimWorkers}), Server.Serve and the HTTP
// routes /v1/jobs?wait=1, /healthz and /metrics. It never touches Gang,
// NoSharedTraces, Remote, Shards, trace.Replayer, pipeline.SourceWindow,
// pipeline.New or JobSpec.Key, so deleting one of those earns its place
// exactly when these default-path workloads show no regression.
//
// # Superseded BENCH files
//
// BENCH_0001 to BENCH_0005 are kept as history. Their rows map to:
//
//	0001 SimulatorThroughput (live emulation)   pipeline.minst_per_s.4w-1pV (replayed), allocs ->
//	                                              pipeline.allocs_per_run
//	0001 SteadyStateCycleLoop/IM, /V            pipeline.minst_per_s.4w-1pIM, .4w-1pV; the stage
//	                                              split in pipeline.stage.*_frac
//	0001 SquashRecovery                         pipeline.stage.undoNewest_frac (share only)
//	0001 HeadlineSpeedups, 0001/0002 Fig11IPC,  paper-sweep pass_s; one experiment's share is its
//	0002 Fig12PortOccupancy                       span self time in spans.json
//	0002/0003/0004 SweepSharedTrace, 0004       experiments.self_s, experiments.parallel_eff and
//	SweepGang (6 configs x 12 benchmarks)         pipeline.run_s on the same 72-run set
//	0002/0003 TraceReplay                       pipeline.minst_per_s.4w-1pV
//	0004 Fig11IPC ipc_4w1p*                     model.ipc.4w-1pnoIM/IM/V (geomean, not mean)
//	0005 sweep_local_single_process             paper-sweep pass_s (at 200k, not 25k)
//	0005 sweep_coordinator_0_workers            served-cold pass_s (at 200k, not 25k)
//	0002 SweepLiveStream, 0003 Sharded*,        not measured: NoSharedTraces, Shards and Remote
//	0005 coordinator with 1-2 workers             are outside the stable surface
package main
