package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"specvec/internal/experiments"
	"specvec/internal/obs"
)

// JobState is the lifecycle of one submitted job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry of a job's progress stream, delivered over SSE.
// State events bracket the lifecycle; progress events relay the runner's
// ProgressEvents (per-run start/finish, committed-instruction motion and
// per-interval shard completion).
type Event struct {
	Seq   int       `json:"seq"`
	Time  time.Time `json:"time"`
	Kind  string    `json:"kind"` // "state" or "progress"
	State JobState  `json:"state,omitempty"`
	// Progress payload (runner events).
	Phase     string `json:"phase,omitempty"` // run-started, run-progress, shard-done, run-done
	Cfg       string `json:"cfg,omitempty"`
	Bench     string `json:"bench,omitempty"`
	Committed uint64 `json:"committed,omitempty"`
	Target    uint64 `json:"target,omitempty"`
	Shard     int    `json:"shard,omitempty"`
	Shards    int    `json:"shards,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
}

// maxJobEvents bounds a job's retained event history; beyond it the
// oldest events are dropped (SSE replay then starts at the gap — Seq
// numbers make the gap visible to clients).
const maxJobEvents = 8192

// Job is one submitted spec moving through the scheduler.
type Job struct {
	ID   string
	Spec JobSpec // normalized

	// trace is the job's span tree (set by Submit, on the scheduler's
	// clock; dropped once the timeline is published); queueSpan is its
	// queue-wait child, opened at submission and ended when a worker
	// picks the job up.
	trace     *obs.Trace
	queueSpan obs.SpanID

	mu       sync.Mutex
	state    JobState
	err      string
	source   Source // where the job's runs came from (valid when done)
	created  time.Time
	started  time.Time
	finished time.Time
	result   []byte // encoded Result (valid when done)
	events   []Event
	firstSeq int // Seq of events[0] (history may be trimmed)
	nextSeq  int
	subs     map[chan Event]struct{}
	ctx      context.Context    // the job's own lifetime (set at submission)
	cancel   context.CancelFunc // cancels ctx; usable from submission on
	done     chan struct{}
	tied     context.Context // optional request context a waited job dies with
}

func newJob(id string, spec JobSpec) *Job {
	j := &Job{
		ID:      id,
		Spec:    spec,
		state:   StateQueued,
		created: time.Now(),
		subs:    map[chan Event]struct{}{},
		done:    make(chan struct{}),
	}
	j.publishState(StateQueued)
	return j
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel requests cancellation. A queued job resolves to cancelled when a
// worker picks it up; a running job aborts through its context.
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// publish appends ev to the history (assigning its sequence number) and
// fans it out to subscribers. Slow subscribers lose events rather than
// stalling the scheduler: their SSE stream resyncs from history on
// reconnect.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	ev.Seq = j.nextSeq
	j.nextSeq++
	ev.Time = time.Now()
	j.events = append(j.events, ev)
	if len(j.events) > maxJobEvents {
		drop := len(j.events) - maxJobEvents
		j.events = j.events[drop:]
		j.firstSeq += drop
	}
	// Every subscriber receives every event; the order subscribers are
	// visited in cannot reorder any one subscriber's stream.
	//sdv:ignore detrange -- fan-out order is subscriber-independent
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

func (j *Job) publishState(s JobState) {
	j.publish(Event{Kind: "state", State: s})
}

// progressHook adapts runner progress events into the job stream.
func (j *Job) progressHook(ev experiments.ProgressEvent) {
	e := Event{
		Kind:      "progress",
		Phase:     ev.Kind.String(),
		Cfg:       ev.Cfg,
		Bench:     ev.Bench,
		Committed: ev.Committed,
		Target:    ev.Target,
		Shard:     ev.Shard,
		Shards:    ev.Shards,
		Cached:    ev.Cached,
	}
	if ev.Err != nil {
		e.Error = ev.Err.Error()
	}
	j.publish(e)
}

// subscribe registers a live event channel and returns it with a snapshot
// of the history to replay first.
func (j *Job) subscribe() (history []Event, ch chan Event) {
	ch = make(chan Event, 256)
	j.mu.Lock()
	history = append([]Event(nil), j.events...)
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return history, ch
}

func (j *Job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// eventsSince returns the retained events with Seq > seq. The SSE
// handler uses it to resync after the bounded live channel dropped
// events (a slow client), in particular to deliver the terminal state
// event that closes the stream.
func (j *Job) eventsSince(seq int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, ev := range j.events {
		if ev.Seq > seq {
			return append([]Event(nil), j.events[i:]...)
		}
	}
	return nil
}

// setRunning transitions queued -> running.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.publishState(StateRunning)
}

// finish resolves the job. err == nil means done with result; a context
// cancellation resolves to cancelled, any other error to failed.
func (j *Job) finish(result []byte, src Source, err error, cancelledErr bool) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		j.source = src
	case cancelledErr:
		j.state = StateCancelled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	state := j.state
	j.mu.Unlock()
	j.publishState(state)
	close(j.done)
}

// JobView is the wire representation of a job.
type JobView struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// CacheHit and Source say where the job's runs came from: Source is
	// "computed" if any run was simulated, else "disk" if any was read
	// from the disk tier, else "coalesced" if any joined another job's
	// simulation, else "memory"; CacheHit is Source != "computed".
	CacheHit bool      `json:"cacheHit"`
	Source   string    `json:"source,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Result is present on done jobs when the view was built with
	// includeResult.
	Result json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job for serving.
func (j *Job) View(includeResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.ID,
		Spec:    j.Spec,
		State:   j.state,
		Error:   j.err,
		Created: j.created,
	}
	v.Started = j.started
	v.Finished = j.finished
	if j.state == StateDone {
		v.CacheHit = j.source.Hit()
		v.Source = j.source.String()
		if includeResult {
			v.Result = json.RawMessage(j.result)
		}
	}
	return v
}
