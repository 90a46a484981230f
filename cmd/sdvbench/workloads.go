package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"specvec/internal/config"
	"specvec/internal/experiments"
	"specvec/internal/workload"
	"specvec/internal/wspec"
)

// paperSweep is `sdvexp -exp all` in process: a pass is a fresh Runner
// running every experiment. Set-up is what that command pays before
// simulating: process start and building the Runner.
type paperSweep struct {
	r    *experiments.Runner
	exps []experiments.Experiment
}

func (p *paperSweep) setup(c *child) error {
	p.r = newRunner(c)
	p.exps = experiments.All()
	return nil
}

func (*paperSweep) close() {}

func (p *paperSweep) measure(c *child) ([]float64, error) {
	ps := c.rec.start("pass", -1)
	t := time.Now()
	for _, e := range p.exps {
		sp := c.rec.start("experiment "+e.ID, ps)
		tables, err := e.Run(p.r)
		c.rec.end(sp)
		c.op(e.ID, render(tables), err)
	}
	dt := since(t)
	c.rec.end(ps)
	return []float64{dt}, nil
}

// newRunner returns a fresh Runner with every execution-shape option at
// its default.
func newRunner(c *child) *experiments.Runner {
	return experiments.NewRunner(experiments.Options{Scale: c.scale, Seed: c.s.seed, Workers: c.workers})
}

// servedCold is `sdvexp -exp all -server`: a pass submits the 14
// experiment jobs, one at a time, to a fresh daemon with an empty cache
// directory. A daemon restarted on that directory must then serve every
// job from disk unchanged.
type servedCold struct {
	d   *daemon // started by setup
	dir string
}

func (s *servedCold) setup(c *child) error {
	dir, err := os.MkdirTemp("", "sdvbench-cold-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.d, err = startDaemon(dir, c.workers)
	return err
}

func (s *servedCold) measure(c *child) ([]float64, error) {
	ps := c.rec.start("pass", -1)
	t := time.Now()
	s.submitAll(c, ps)
	dt := since(t)
	err := s.stop()
	c.rec.end(ps)
	if err != nil {
		return []float64{dt}, fmt.Errorf("stopping daemon: %w", err)
	}

	sp := c.rec.start("daemon restart", -1)
	defer c.rec.end(sp)
	if s.d, err = startDaemon(s.dir, c.workers); err != nil {
		return []float64{dt}, fmt.Errorf("restarting daemon: %w", err)
	}
	s.submitAll(c, sp)
	return []float64{dt}, s.stop()
}

func (s *servedCold) submitAll(c *child, parent int) {
	for _, e := range experiments.All() {
		sp := c.rec.start("job "+e.ID, parent)
		raw, err := s.d.submit(s.d.client, expJob(e.ID, c.scale, c.s.seed))
		c.rec.end(sp)
		var out []byte
		if err == nil {
			out, err = canonicalResult(raw)
		}
		c.op(e.ID, out, err)
	}
}

// stop stops the running daemon.
func (s *servedCold) stop() error {
	d := s.d
	s.d = nil
	return d.stop()
}

func (s *servedCold) close() {
	if s.d != nil {
		_ = s.stop()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// servedWarm primes a memory-only daemon with the 14 experiment jobs and
// 72 sim jobs (12 benchmarks × the six Fig. 11 configurations), then
// replays them from closed-loop clients: one per worker, each with one
// keep-alive connection, cycling the jobs in its own seed-shuffled order.
// Every request is a cache hit and must return the primed result
// byte-for-byte. A pass is one client's cycle through all 86 jobs.
type servedWarm struct {
	d    *daemon
	jobs []warmJob
}

type warmJob struct {
	name, span string
	body       []byte
	want       [32]byte // sha256 of the primed result document
}

func (w *servedWarm) setup(c *child) error {
	d, err := startDaemon("", c.workers)
	if err != nil {
		return err
	}
	w.d = d
	for _, e := range experiments.All() {
		w.jobs = append(w.jobs, warmJob{name: e.ID, body: expJob(e.ID, c.scale, c.s.seed)})
	}
	for _, cfg := range fig11Configs() {
		for _, b := range workload.Names() {
			w.jobs = append(w.jobs, warmJob{name: "sim " + b + " " + cfg.Name, body: simJob(b, cfg.Name, c.scale, c.s.seed)})
		}
	}
	for i := range w.jobs {
		j := &w.jobs[i]
		j.span = "job " + j.name
		raw, err := d.submit(d.client, j.body)
		if err != nil {
			return fmt.Errorf("priming %s: %w", j.name, err)
		}
		j.want = sha256.Sum256(raw)
		out, err := canonicalResult(raw)
		c.op(j.name, out, err)
	}
	return nil
}

func (w *servedWarm) measure(c *child) ([]float64, error) {
	dur := time.Duration(c.s.seconds) * time.Second
	if c.traced {
		dur = min(dur, 2*time.Second)
	}
	type clientOut struct {
		cycles, lat []float64
		ok          int
		errs        []string
	}
	outs := make([]clientOut, c.workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := range outs {
		wg.Add(1)
		go func(k int, o *clientOut) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			order := rand.New(rand.NewSource(c.s.seed<<8 | int64(k))).Perm(len(w.jobs))
			cs := c.rec.start(fmt.Sprintf("client %d", k), -1)
			defer c.rec.end(cs)
			for time.Now().Before(deadline) {
				cycle := time.Now()
				for _, i := range order {
					j := &w.jobs[i]
					sp := c.rec.start(j.span, cs)
					t := time.Now()
					raw, err := w.d.submit(cl, j.body)
					o.lat = append(o.lat, since(t))
					c.rec.end(sp)
					switch {
					case err != nil:
						o.errs = append(o.errs, fmt.Sprintf("%s: %v", j.name, err))
					case sha256.Sum256(raw) != j.want:
						o.errs = append(o.errs, j.name+": warm result differs from the primed one")
					default:
						o.ok++
					}
				}
				o.cycles = append(o.cycles, since(cycle))
			}
		}(k, &outs[k])
	}
	wg.Wait()
	elapsed := since(start)

	var cycles, lat []float64
	for _, o := range outs {
		cycles = append(cycles, o.cycles...)
		lat = append(lat, o.lat...)
		c.passed(o.ok)
		for _, e := range o.errs {
			c.fail("%s", e)
		}
	}
	if c.rec == nil {
		sort.Float64s(lat)
		c.res.Extra["jobs_per_s"] = float64(len(lat)) / elapsed
		c.res.Extra["latency_p50_ms"] = 1e3 * percentile(lat, 0.50)
		c.res.Extra["latency_p99_ms"] = 1e3 * percentile(lat, 0.99)
		c.res.Extra["latency_samples"] = float64(len(lat))
	}
	return cycles, nil
}

func (w *servedWarm) close() {
	if w.d != nil {
		_ = w.d.stop()
	}
}

// singleRuns is `sdvsim -workload all`-shaped: a pass is a fresh Runner
// doing RunAll of 4w-1pV over the built-in suite plus the generated
// workloads of the spec files, so no recording is shared between
// configurations. Set-up registers the spec files and builds the Runner.
type singleRuns struct {
	names []string
	specs []experiments.RunSpec
	r     *experiments.Runner
}

func (s *singleRuns) setup(c *child) error {
	gen, err := loadSpecs(c.s.specs)
	if err != nil {
		return err
	}
	s.names = append(workload.Names(), gen...)
	cfg := config.MustNamed(4, 1, config.ModeV)
	for _, n := range s.names {
		s.specs = append(s.specs, experiments.RunSpec{Cfg: cfg, Bench: n})
	}
	s.r = newRunner(c)
	return nil
}

func (s *singleRuns) close() {}

func (s *singleRuns) measure(c *child) ([]float64, error) {
	ps := c.rec.start("pass", -1)
	t := time.Now()
	sp := c.rec.start("RunAll", ps)
	sims, err := s.r.RunAll(s.specs)
	c.rec.end(sp)
	dt := since(t)
	c.rec.end(ps)
	if err != nil {
		return []float64{dt}, err
	}
	var committed uint64
	for i, st := range sims {
		committed += st.Committed
		b, err := json.Marshal(st)
		c.op(s.names[i], b, err)
	}
	c.res.Extra["sim_minst_per_s"] = float64(committed) / dt / 1e6
	return []float64{dt}, nil
}

// loadSpecs registers every workload-spec file in dir (sorted by name)
// and returns the generated workload names in file order.
func loadSpecs(dir string) ([]string, error) {
	var files []string
	for _, pat := range []string{"*.yaml", "*.yml", "*.json"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, errors.New("no workload-spec files in " + dir)
	}
	var names []string
	for _, f := range files {
		spec, err := wspec.LoadAndRegister(f)
		if err != nil {
			return nil, err
		}
		names = append(names, spec.Names()...)
	}
	return names, nil
}
