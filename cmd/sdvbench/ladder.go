package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/experiments"
	"specvec/internal/isa"
	"specvec/internal/pipeline"
	"specvec/internal/stats"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// ladderScale is the instructions per run of the ladder's direct layer
// calls. Its daemon serves the experiment jobs at warmScale instead, which
// keeps a traced run well inside its time limit and checks the served
// tables against served-warm's golden digests.
const ladderScale = 200_000

// ladder calls each layer directly, bottom up, on the 12 built-in
// benchmarks, so each row isolates what one layer adds: build, spec
// compile, emulate, record, encode/decode, decoded walks, the cycle loop
// under the six Fig. 11 configurations (CPU-profiled), the Runner over the
// same 72 runs at one worker and at all workers, and a daemon serving the
// experiment jobs cold, warm and after a restart. The Runner's and the
// daemon's outputs must equal the direct calls' and the golden digests.
// It does not depend on the workload, so a traced run runs it once, in a
// child of its own.
func (c *child) ladder() {
	l := ladderRun{c: c, scale: ladderScale, serverScale: warmScale, seed: c.s.seed, lay: c.res.Layers}
	if c.s.scale > 0 {
		l.scale, l.serverScale = c.s.scale, c.s.scale
	}
	l.root = c.rec.start("ladder", -1)
	defer c.rec.end(l.root)
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"workload", l.build}, {"wspec", l.compile}, {"emu", l.emulate},
		{"trace.record", l.record}, {"trace.codec", l.codec}, {"trace.decoded", l.walks},
		{"pipeline", l.pipeline}, {"experiments", l.runner}, {"server", l.server},
	} {
		l.step = c.rec.start("ladder "+step.name, l.root)
		err := step.fn()
		c.rec.end(l.step)
		if err != nil {
			c.fail("ladder %s: %v", step.name, err)
			return
		}
	}
	l.model()
}

type ladderRun struct {
	c           *child
	scale       int
	serverScale int
	seed        int64
	root        int
	step        int // span of the running step
	lay         map[string]float64

	names  []string
	progs  []*isa.Program
	traces []*trace.Trace
	sims   map[string][]*stats.Sim // config name → stats per benchmark
	direct map[string][]byte       // "<config>/<bench>" → stats JSON

	emuS, buildS, recordS, pipeS float64
}

// rate returns n per second in millions (0 for no time).
func rate(n uint64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs / 1e6
}

func (l *ladderRun) build() error {
	l.names = workload.Names()
	t := time.Now()
	for _, n := range l.names {
		b, err := workload.Get(n)
		if err != nil {
			return err
		}
		l.progs = append(l.progs, b.Build(l.scale, l.seed))
	}
	l.buildS = since(t)
	l.lay["workload.build_s"] = l.buildS
	return nil
}

// compile parses and registers the spec files and builds their programs.
func (l *ladderRun) compile() error {
	t := time.Now()
	gen, err := loadSpecs(l.c.s.specs)
	if err != nil {
		return err
	}
	for _, n := range gen {
		b, err := workload.Get(n)
		if err != nil {
			return err
		}
		b.Build(l.scale, l.seed)
	}
	l.lay["wspec.compile_s"] = since(t)
	return nil
}

// emulate runs each program functionally as far as a recording would.
func (l *ladderRun) emulate() error {
	var insts uint64
	for _, p := range l.progs {
		m, err := emu.New(p)
		if err != nil {
			return err
		}
		t := time.Now()
		n, err := m.Run(uint64(l.scale + trace.RecordSlack))
		l.emuS += since(t)
		if err != nil && !errors.Is(err, emu.ErrLimit) {
			return err
		}
		insts += n
	}
	l.lay["emu.run_s"] = l.emuS
	l.lay["emu.minst_per_s"] = rate(insts, l.emuS)
	return nil
}

func (l *ladderRun) record() error {
	var insts uint64
	for _, p := range l.progs {
		m, err := emu.New(p)
		if err != nil {
			return err
		}
		t := time.Now()
		rec, err := trace.NewRecorder(m, p, 0)
		if err != nil {
			return err
		}
		tr, err := rec.Finish(l.scale + trace.RecordSlack)
		l.recordS += since(t)
		if err != nil {
			return err
		}
		l.traces = append(l.traces, tr)
		insts += uint64(tr.Len())
	}
	l.lay["trace.record_s"] = l.recordS
	l.lay["trace.record_minst_per_s"] = rate(insts, l.recordS)
	if l.emuS > 0 {
		l.lay["trace.record_over_emu_x"] = l.recordS / l.emuS
	}
	return nil
}

func (l *ladderRun) codec() error {
	var encS, decS float64
	var bytesOut, insts int
	for i, tr := range l.traces {
		t := time.Now()
		enc, err := tr.EncodeBytes()
		encS += since(t)
		if err != nil {
			return err
		}
		t = time.Now()
		dec, err := trace.DecodeBytes(enc)
		decS += since(t)
		if err != nil {
			return err
		}
		l.c.verify(dec.Len() == tr.Len(), "ladder: codec round trip of %s changed its length", l.names[i])
		bytesOut += len(enc)
		insts += tr.Len()
	}
	l.lay["trace.encode_s"] = encS
	l.lay["trace.decode_s"] = decS
	if insts > 0 {
		l.lay["trace.bytes_per_inst"] = float64(bytesOut) / float64(insts)
	}
	return nil
}

// walks times the first cursor walk of a fresh Decoded (which decodes every
// block) and a second walk over the already-decoded blocks.
func (l *ladderRun) walks() error {
	var first, second float64
	for i, tr := range l.traces {
		d := trace.NewDecoded(tr)
		t := time.Now()
		n1 := walk(d.Cursor())
		first += since(t)
		t = time.Now()
		n2 := walk(d.Cursor())
		second += since(t)
		l.c.verify(n1 == tr.Len() && n2 == n1, "ladder: decoded walks of %s saw %d and %d of %d records", l.names[i], n1, n2, tr.Len())
	}
	l.lay["trace.block_decode_s"] = first
	l.lay["trace.shared_walk_s"] = second
	return nil
}

func walk(c *trace.Cursor) int {
	n := 0
	for {
		if _, ok := c.NextRef(); !ok {
			return n
		}
		n++
	}
}

// pipeline runs every (benchmark, config) pair sequentially from a shared
// decoded trace per benchmark, as gang replay does, under a CPU profile.
func (l *ladderRun) pipeline() error {
	cfgs := fig11Configs()
	secs := map[string]float64{}
	insts := map[string]uint64{}
	l.sims = map[string][]*stats.Sim{}
	var news, recycles uint64
	prof := filepath.Join(l.c.s.traceDir, "ladder-pipeline.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runErr := func() error {
		for _, tr := range l.traces {
			d := trace.NewDecoded(tr)
			for _, cfg := range cfgs {
				t := time.Now()
				sim, err := pipeline.NewFromSource(cfg, d.Cursor())
				if err != nil {
					return err
				}
				st, err := sim.Run(uint64(l.scale))
				secs[cfg.Name] += since(t)
				if err != nil {
					return err
				}
				h := sim.HotStats()
				news += h.UopNews
				recycles += h.UopRecycles
				insts[cfg.Name] += st.Committed
				l.sims[cfg.Name] = append(l.sims[cfg.Name], st)
			}
		}
		return nil
	}()
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}

	runs := len(cfgs) * len(l.traces)
	var total uint64
	for _, cfg := range cfgs {
		l.pipeS += secs[cfg.Name]
		total += insts[cfg.Name]
		l.lay["pipeline.minst_per_s."+cfg.Name] = rate(insts[cfg.Name], secs[cfg.Name])
	}
	l.lay["pipeline.run_s"] = l.pipeS
	l.lay["pipeline.minst_per_s"] = rate(total, l.pipeS)
	l.lay["pipeline.allocs_per_run"] = float64(m1.Mallocs-m0.Mallocs) / float64(max(runs, 1))
	l.lay["pipeline.uop_recycle_ratio"] = stats.Ratio(recycles, news+recycles)
	l.direct = map[string][]byte{}
	for _, cfg := range cfgs {
		for i, st := range l.sims[cfg.Name] {
			b, err := json.Marshal(st)
			if err != nil {
				return err
			}
			l.direct[cfg.Name+"/"+l.names[i]] = b
		}
	}
	l.stages(prof)
	return nil
}

// stages aggregates `go tool pprof -top -cum` over the hot-path stage
// functions. A function absent from the profile (renamed, inlined away,
// or no toolchain) is reported missing.
func (l *ladderRun) stages(prof string) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=100000", prof).Output()
	cum := map[string]float64{}
	if err == nil {
		cum = parseTopCum(out)
	}
	for _, st := range hotStages {
		name := "pipeline.stage." + st.stem + "_frac"
		v, ok := cum[st.sym]
		if !ok {
			l.c.missing(name)
		}
		l.lay[name] = v
	}
}

// parseTopCum maps each hot-stage symbol to its cum% / 100 in pprof -top
// output (columns: flat flat% sum% cum cum% name).
func parseTopCum(out []byte) map[string]float64 {
	res := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		cum, err := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err != nil {
			continue
		}
		for _, st := range hotStages {
			if strings.HasSuffix(f[5], "/"+st.sym) {
				res[st.sym] = max(res[st.sym], cum/100)
			}
		}
	}
	return res
}

// runner submits the same 72 runs through experiments.Runner.RunAll, once
// at one worker and once at all workers. self_s is the one-worker wall
// minus the direct layer time for the same work; parallel_eff is that
// layer time over the many-worker wall times the workers.
func (l *ladderRun) runner() error {
	var specs []experiments.RunSpec
	for _, cfg := range fig11Configs() {
		for _, n := range l.names {
			specs = append(specs, experiments.RunSpec{Cfg: cfg, Bench: n})
		}
	}
	layers := l.buildS + l.recordS + l.pipeS
	var walls []float64
	for _, w := range []int{1, l.c.workers} {
		sp := l.c.rec.start(fmt.Sprintf("RunAll workers=%d", w), l.step)
		t := time.Now()
		r := experiments.NewRunner(experiments.Options{Scale: l.scale, Seed: l.seed, Workers: w})
		sims, err := r.RunAll(specs)
		walls = append(walls, since(t))
		l.c.rec.end(sp)
		if err != nil {
			return err
		}
		for i, st := range sims {
			key := specs[i].Cfg.Name + "/" + specs[i].Bench
			b, err := json.Marshal(st)
			l.c.verify(err == nil && bytes.Equal(b, l.direct[key]),
				"ladder: Runner (workers=%d) and the direct pipeline disagree on %s", w, key)
		}
	}
	l.lay["experiments.self_s"] = walls[0] - layers
	if walls[1] > 0 {
		l.lay["experiments.parallel_eff"] = layers / (walls[1] * float64(l.c.workers))
	}
	return nil
}

// server serves the 14 experiment jobs from a daemon with a fresh cache
// directory, reads the job-phase histograms and counters from /metrics,
// measures /healthz and warm resubmissions, then restarts a daemon on the
// same directory and resubmits every job.
func (l *ladderRun) server() error {
	dir, err := os.MkdirTemp("", "sdvbench-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir, l.c.workers)
	if err != nil {
		return err
	}
	exps := experiments.All()
	cold := map[string][32]byte{}
	for _, e := range exps {
		raw, err := d.submit(d.client, expJob(e.ID, l.serverScale, l.seed))
		var out []byte
		if err == nil {
			out, err = canonicalResult(raw)
		}
		if err != nil {
			l.c.fail("ladder server %s: %v", e.ID, err)
			continue
		}
		l.c.passed(1)
		cold[e.ID] = sha256.Sum256(raw)
		l.c.res.Digests[e.ID] = digest(out)
	}
	m, err := d.metrics()
	if err != nil {
		return errors.Join(err, d.stop())
	}
	compute, okCompute := sumSeries(m, "sdvd_job_duration_seconds_sum{", `phase="compute"`)
	l.metric("server.compute_s", compute, okCompute)
	for _, x := range []struct{ name, series string }{
		{"server.queue_wait_s", "sdvd_queue_wait_seconds_sum"},
		{"server.cache_lookup_s", "sdvd_cache_lookup_seconds_sum"},
		{"server.sims_per_pass", "sdvd_sims_total"},
		{"server.recordings_per_pass", "sdvd_trace_recordings_total"},
		{"server.result_bytes", "sdvd_cache_bytes"},
	} {
		v, ok := m[x.series]
		l.metric(x.name, v, ok)
	}

	var hz, warm []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		_, err := d.get(d.client, "/healthz")
		hz = append(hz, since(t))
		l.c.verify(err == nil, "ladder healthz: %v", err)
	}
	for round := 0; round < 10; round++ {
		for _, e := range exps {
			t := time.Now()
			raw, err := d.submit(d.client, expJob(e.ID, l.serverScale, l.seed))
			warm = append(warm, since(t))
			l.c.verify(err == nil && sha256.Sum256(raw) == cold[e.ID], "ladder warm %s: %v", e.ID, err)
		}
	}
	l.lay["server.healthz_us"] = 1e6 * median(hz)
	l.lay["server.warm_self_us"] = 1e6 * (median(warm) - median(hz))
	m, err = d.metrics()
	if err != nil {
		return errors.Join(err, d.stop())
	}
	hits, okH := m["sdvd_cache_hits_total"]
	misses, okM := m["sdvd_cache_misses_total"]
	if okH && okM && hits+misses > 0 {
		l.lay["server.cache_hit_ratio"] = hits / (hits + misses)
	} else {
		l.metric("server.cache_hit_ratio", 0, false)
	}
	if err := d.stop(); err != nil {
		return err
	}

	sp := l.c.rec.start("daemon restart", l.step)
	t := time.Now()
	d, err = startDaemon(dir, l.c.workers)
	if err != nil {
		l.c.rec.end(sp)
		return err
	}
	raws := make([]json.RawMessage, len(exps))
	errs := make([]error, len(exps))
	for i, e := range exps {
		raws[i], errs[i] = d.submit(d.client, expJob(e.ID, l.serverScale, l.seed))
	}
	l.lay["server.restart_s"] = since(t)
	l.c.rec.end(sp)
	for i, e := range exps {
		out, err := raws[i], errs[i]
		var canon []byte
		if err == nil {
			canon, err = canonicalResult(out)
		}
		l.c.verify(err == nil && digest(canon) == l.c.res.Digests[e.ID],
			"ladder restart %s: result differs after a restart (%v)", e.ID, err)
	}
	return d.stop()
}

// metric sets a per-layer value read from the daemon, marking it missing
// when the daemon no longer exposes its source.
func (l *ladderRun) metric(name string, v float64, ok bool) {
	if !ok {
		l.c.missing(name)
	}
	l.lay[name] = v
}

// sumSeries sums every /metrics series starting with prefix and
// containing label.
func sumSeries(m map[string]float64, prefix, label string) (float64, bool) {
	var sum float64
	found := false
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && strings.Contains(k, label) {
			sum += v
			found = true
		}
	}
	return sum, found
}

// model reports the modelled machine from the direct pipeline runs: IPC
// geomean per configuration and, on 4w-1pV, the cache, branch and
// speculative-work ratios. These are exact for a seed: any change means
// the simulated results changed.
func (l *ladderRun) model() {
	for _, cfg := range fig11Configs() {
		var ipc []float64
		for _, st := range l.sims[cfg.Name] {
			ipc = append(ipc, st.IPC())
		}
		l.lay["model.ipc."+cfg.Name] = stats.GeoMean(ipc)
	}
	cfg := config.MustNamed(4, 1, config.ModeV)
	a := stats.New()
	for _, st := range l.sims[cfg.Name] {
		a.Merge(st)
	}
	l.lay["model.l1d_miss_rate"] = stats.Ratio(a.L1DMisses, a.L1DHits+a.L1DMisses)
	l.lay["model.branch_mispredict_rate"] = a.BranchMispredictRate()
	l.lay["model.validation_frac"] = a.ValidationFraction()
	l.lay["model.validation_failure_ratio"] = stats.Ratio(a.ValidationFailures, a.ValidationFailures+a.Validations())
	l.lay["model.elems_used_ratio"] = stats.Ratio(a.ElemsComputedUsed, a.ElemsComputedUsed+a.ElemsComputedUnused)
	l.lay["model.wide_bus_unused_frac"] = a.WideBusWords.Fraction(0)
	l.lay["model.port_occupancy"] = a.PortOccupancy(cfg.MemPorts)
}
