package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// bench is one workload's implementation inside a child.
type bench interface {
	// setup brings the workload to ready: everything a user pays before
	// the first measured operation.
	setup(c *child) error
	// measure runs one measured pass, or the -seconds loop, and returns
	// the wall times of its passes (the loop's client cycles), recording
	// spans into c.rec when it is non-nil.
	measure(c *child) ([]float64, error)
	// close releases daemons and temporary directories.
	close()
}

// Child roles, passed with -role: a set-up child exits once ready, a
// measuring child measures once, a spans child measures once with spans
// recorded, and the ladder child runs the layer ladder.
const (
	roleSetup   = "setup"
	roleMeasure = "measure"
	roleSpans   = "spans"
	roleLadder  = "ladder"
)

// childResult is what a child reports to the parent as JSON.
type childResult struct {
	Passes    []float64          `json:"passes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Identity  int                `json:"identity"` // outputs re-checked against an earlier one
	Errors    []string           `json:"errors,omitempty"`
	Digests   map[string]string  `json:"digests"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Missing   []string           `json:"missing,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// child is the state of one workload or ladder process.
type child struct {
	s       settings
	def     workloadDef
	scale   int
	workers int
	traced  bool      // part of a traced run
	rec     *recorder // non-nil in a spans or ladder child
	mu      sync.Mutex
	res     childResult
}

func childMain(args []string) int {
	s, err := parseSettings(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdvbench child:", err)
		return 2
	}
	c := &child{s: s, workers: benchWorkers(), traced: s.traceDir != ""}
	c.res.Digests = map[string]string{}
	c.res.Extra = map[string]float64{}
	runtime.GOMAXPROCS(c.workers)
	if s.role == roleSpans || s.role == roleLadder {
		c.rec = &recorder{t0: time.Now()}
	}
	if s.role == roleLadder {
		c.res.Layers = map[string]float64{}
		c.ladder()
		c.res.Spans = c.rec.spans
		return c.emit()
	}
	defs, err := selectWorkloads(s.workload)
	if err != nil || len(defs) != 1 {
		fmt.Fprintln(os.Stderr, "sdvbench child: need one workload:", err)
		return 2
	}
	c.def, c.scale = defs[0], defs[0].scale
	if s.scale > 0 {
		c.scale = s.scale
	}

	b := c.def.newBench()
	defer b.close()
	if err := b.setup(c); err != nil {
		c.fail("setup: %v", err)
		return c.emit()
	}
	fmt.Println("ready")
	if s.role == roleSetup {
		return 0
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.res.Passes, err = b.measure(c)
	runtime.ReadMemStats(&after)
	if err != nil {
		c.fail("measure: %v", err)
	}
	if c.traced {
		c.res.Layers = map[string]float64{
			"runtime.alloc_mb":  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
			"runtime.gc_cycles": float64(after.NumGC - before.NumGC),
		}
	}
	if c.rec != nil {
		c.res.Spans = c.rec.spans
	}
	return c.emit()
}

// emit prints the result as the last line of standard output.
func (c *child) emit() int {
	b, err := json.Marshal(&c.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdvbench child:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// maxErrors caps the error messages a child keeps; failures beyond it are
// still counted.
const maxErrors = 20

// fail counts one failed operation.
func (c *child) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.Attempted++
	c.res.Failed++
	if len(c.res.Errors) < maxErrors {
		c.res.Errors = append(c.res.Errors, fmt.Sprintf(format, args...))
	}
}

// passed counts n operations that succeeded.
func (c *child) passed(n int) {
	c.mu.Lock()
	c.res.Attempted += n
	c.mu.Unlock()
}

// verify counts one checked operation, failed unless ok.
func (c *child) verify(ok bool, format string, args ...any) {
	if !ok {
		c.fail(format, args...)
		return
	}
	c.passed(1)
}

// op records one operation's output under item. The first output of an
// item becomes its digest, which the parent checks against the golden
// file and the other children's; a repeat must reproduce it exactly.
func (c *child) op(item string, out []byte, err error) {
	if err != nil {
		c.fail("%s: %v", item, err)
		return
	}
	d := digest(out)
	c.mu.Lock()
	prev, seen := c.res.Digests[item]
	if !seen {
		c.res.Digests[item] = d
	} else {
		c.res.Identity++
	}
	c.mu.Unlock()
	c.verify(!seen || prev == d, "%s: output differs from its first", item)
}

// missing marks a per-layer metric the program no longer exposes; it is
// reported, not failed.
func (c *child) missing(name string) {
	c.res.Missing = append(c.res.Missing, name)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// span is one traced interval, in seconds since the child started
// recording. Parent indexes the span list; -1 marks a root.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// recorder keeps spans in memory; a nil recorder records nothing, so
// untraced passes run the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// setSelfTimes sets each span's self time: its duration minus the part
// of it that its children's intervals cover.
func setSelfTimes(spans []span) {
	kids := make([][][2]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		lo, hi := spans[i].Start, spans[i].End
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, lo
		for _, k := range iv {
			a, b := max(k[0], reach), min(k[1], hi)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		spans[i].Self = (hi - lo) - covered
	}
}
