package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"specvec/internal/obs"
)

// timelineCmd implements `sdvtrace timeline JOB_ID`: fetch a completed
// job's span tree from a daemon and render it as an indented waterfall
// — one line per span with its offset, duration and a bar scaled to the
// job's total time.
func timelineCmd(args []string) int {
	fs := flag.NewFlagSet("sdvtrace timeline", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8077", "daemon base URL")
	width := fs.Int("width", 32, "waterfall bar width in characters")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sdvtrace timeline [-server URL] [-width N] JOB_ID")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 1 || *width < 1 {
		fs.Usage()
		return 2
	}
	tl, err := fetchTimeline(*server, fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdvtrace:", err)
		return 1
	}
	renderTimeline(os.Stdout, tl, *width)
	return 0
}

// fetchTimeline GETs one job's timeline from the daemon.
func fetchTimeline(server, jobID string) (obs.Timeline, error) {
	url := strings.TrimSuffix(server, "/") + "/v1/jobs/" + jobID + "/timeline"
	resp, err := http.Get(url)
	if err != nil {
		return obs.Timeline{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return obs.Timeline{}, err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &apiErr) == nil && apiErr.Error != "" {
			return obs.Timeline{}, fmt.Errorf("%s: %s", url, apiErr.Error)
		}
		return obs.Timeline{}, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	var tl obs.Timeline
	if err := json.Unmarshal(payload, &tl); err != nil {
		return obs.Timeline{}, fmt.Errorf("decoding timeline: %w", err)
	}
	return tl, nil
}

// renderTimeline prints the waterfall: a summary line, then one line
// per span in tree order.
func renderTimeline(w io.Writer, tl obs.Timeline, width int) {
	fmt.Fprintf(w, "job %s (%s, %s): %d spans, %s\n", tl.ID, tl.Kind, tl.State, tl.Spans, fmtUs(tl.DurationUs))
	if tl.DroppedSpans > 0 {
		fmt.Fprintf(w, "  (%d spans dropped at the trace bound)\n", tl.DroppedSpans)
	}
	total := tl.DurationUs
	if total <= 0 {
		total = 1
	}
	renderNode(w, tl.Root, 0, total, width)
}

func renderNode(w io.Writer, n *obs.TreeNode, depth int, total int64, width int) {
	if n == nil {
		return
	}
	label := n.Name
	if n.Cfg != "" || n.Bench != "" {
		label += " " + strings.TrimSpace(n.Cfg+"/"+n.Bench)
	}
	fmt.Fprintf(w, "%10s %10s  |%s|  %s%s\n",
		"+"+fmtUs(n.StartUs), fmtUs(n.DurationUs),
		bar(n.StartUs, n.DurationUs, total, width),
		strings.Repeat("  ", depth), label)
	for _, c := range n.Children {
		renderNode(w, c, depth+1, total, width)
	}
}

// bar renders a span's extent within the job as width columns; every
// span occupies at least one column so short phases stay visible.
func bar(start, dur, total int64, width int) string {
	b := make([]byte, width)
	for i := range b {
		b[i] = ' '
	}
	s := int(start * int64(width) / total)
	e := int((start + dur) * int64(width) / total)
	if s >= width {
		s = width - 1
	}
	if e <= s {
		e = s + 1
	}
	if e > width {
		e = width
	}
	for i := s; i < e; i++ {
		b[i] = '='
	}
	return string(b)
}

// fmtUs renders a microsecond count compactly (1.234ms, 2.5s).
func fmtUs(us int64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.String()
	}
}
