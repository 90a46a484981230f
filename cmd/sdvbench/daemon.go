package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"

	"specvec/internal/experiments"
	"specvec/internal/server"
	"specvec/internal/stats"
)

// daemon is an in-process sdvd serving on a loopback port. The harness
// talks to it only over HTTP, through the public routes.
type daemon struct {
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startDaemon serves a fresh daemon on 127.0.0.1:0 and returns once
// /healthz answers 200. cacheDir "" keeps results in memory only.
func startDaemon(cacheDir string, workers int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{CacheDir: cacheDir, SimWorkers: workers})
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{url: "http://" + ln.Addr().String(), client: newClient(), cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	if _, err := d.get(d.client, "/healthz"); err != nil {
		return nil, fmt.Errorf("daemon not healthy: %w (stop: %v)", err, d.stop())
	}
	return d, nil
}

// newClient returns a client holding at most one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
}

// stop shuts the daemon down and waits for Serve to return.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.cancel()
	return <-d.done
}

func (d *daemon) get(cl *http.Client, path string) ([]byte, error) {
	resp, err := cl.Get(d.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}

// submit posts a job with ?wait=1 and returns its result document.
func (d *daemon) submit(cl *http.Client, body []byte) (json.RawMessage, error) {
	resp, err := cl.Post(d.url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(payload)))
	}
	var view struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(payload, &view); err != nil {
		return nil, fmt.Errorf("decoding job: %w", err)
	}
	if view.State != "done" || len(view.Result) == 0 {
		return nil, fmt.Errorf("job resolved %s: %s", view.State, view.Error)
	}
	return view.Result, nil
}

// metrics scrapes /metrics into series → value ("name" or "name{labels}").
func (d *daemon) metrics() (map[string]float64, error) {
	b, err := d.get(d.client, "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// expJob and simJob are job bodies; every execution-shape field is left
// to the daemon's defaults.
func expJob(exp string, scale int, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"kind":"experiment","exp":%q,"scale":%d,"seed":%d}`, exp, scale, seed))
}

func simJob(bench, cfg string, scale int, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"kind":"sim","workload":%q,"config":%q,"scale":%d,"seed":%d}`, bench, cfg, scale, seed))
}

// canonicalResult renders a job result the way a local run would print
// it: experiment tables through Table.Render, sim statistics as the
// stats.Sim JSON encoding.
func canonicalResult(raw json.RawMessage) ([]byte, error) {
	var res struct {
		Tables []*experiments.Table `json:"tables"`
		Stats  *stats.Sim           `json:"stats"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	if res.Stats != nil {
		return json.Marshal(res.Stats)
	}
	if len(res.Tables) == 0 {
		return nil, fmt.Errorf("result has neither tables nor stats")
	}
	return render(res.Tables), nil
}

// render concatenates tables exactly as sdvexp prints them.
func render(tables []*experiments.Table) []byte {
	var b bytes.Buffer
	for _, t := range tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.Bytes()
}
