package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"compresso/internal/obs"
	"compresso/internal/progress"
)

func startTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := New(progress.NewTracker())
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func get(t *testing.T, addr, path string) (string, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	s, addr := startTestServer(t)

	// Feed it like a run would: grid progress, run samples, a trace.
	s.GridStart("fig2", 3)
	s.GridCell("fig2", 0, 5*time.Millisecond)
	s.GridCell("fig2", 1, 7*time.Millisecond)
	s.tracker.GridStart("fig2", 3)
	s.tracker.GridCell("fig2", 0, 5*time.Millisecond)

	s.AttachRun("gcc_compresso", 1000)
	snap := obs.Snapshot{Counters: map[string]uint64{"memctl.demand_reads": 11}}
	s.SampleRun(1000, snap)
	snap2 := obs.Snapshot{Counters: map[string]uint64{"memctl.demand_reads": 30}}
	s.SampleRun(2000, snap2)

	tr := obs.NewTracer(4)
	tr.Emit(10, obs.EvLineOverflow, 3, 1)
	s.PublishTrace(tr.Trace())

	body, _ := get(t, addr, "/healthz")
	if strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz = %q", body)
	}

	body, ctype := get(t, addr, "/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics content type %q", ctype)
	}
	if err := CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails validation: %v\n%s", err, body)
	}
	for _, want := range []string{
		"harness_cells_done 2",
		"harness_cells_total 3",
		`memctl_demand_reads{run="gcc_compresso"} 30`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	body, ctype = get(t, addr, "/progress")
	if ctype != "application/json" {
		t.Fatalf("progress content type %q", ctype)
	}
	var st progress.State
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if st.CellsDone != 1 || st.CellsTotal != 3 {
		t.Fatalf("/progress state %+v", st)
	}

	body, _ = get(t, addr, "/timeseries")
	var ts struct {
		Run *struct {
			Name   string     `json:"name"`
			Series obs.Series `json:"series"`
		} `json:"run"`
		Harness obs.Series `json:"harness"`
	}
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("/timeseries not JSON: %v", err)
	}
	if ts.Run == nil || ts.Run.Name != "gcc_compresso" || len(ts.Run.Series.Windows) != 2 {
		t.Fatalf("/timeseries run = %+v", ts.Run)
	}
	// Second window is the delta 30-11.
	if got := ts.Run.Series.Windows[1].Delta.Counters["memctl.demand_reads"]; got != 19 {
		t.Fatalf("window delta = %d, want 19", got)
	}

	body, _ = get(t, addr, "/events")
	var trace obs.Trace
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}
	if trace.Total != 1 || len(trace.Events) != 1 {
		t.Fatalf("/events trace = %+v", trace)
	}

	body, _ = get(t, addr, "/debug/pprof/cmdline")
	if body == "" {
		t.Fatal("pprof cmdline empty")
	}
}

// getStatus is the raw counterpart of get for handlers that are
// expected to refuse the request.
func getStatus(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEventsFilters(t *testing.T) {
	s, addr := startTestServer(t)
	tr := obs.NewTracer(16)
	tr.Emit(10, obs.EvLineOverflow, 3, 1)
	tr.Emit(20, obs.EvRepack, 4, 0)
	tr.Emit(30, obs.EvLineOverflow, 5, 2)
	tr.Emit(40, obs.EvRepack, 6, 0)
	s.PublishTrace(tr.Trace())

	decode := func(body string) obs.Trace {
		t.Helper()
		var trace obs.Trace
		if err := json.Unmarshal([]byte(body), &trace); err != nil {
			t.Fatalf("/events not JSON: %v\n%s", err, body)
		}
		return trace
	}

	body, _ := get(t, addr, "/events?kind=line-overflow")
	trace := decode(body)
	if len(trace.Events) != 2 {
		t.Fatalf("kind filter kept %d events, want 2", len(trace.Events))
	}
	for _, e := range trace.Events {
		if e.Kind != obs.EvLineOverflow {
			t.Fatalf("kind filter leaked %v", e.Kind)
		}
	}
	// Capacity/Total describe the underlying trace, not the filtered view.
	if trace.Total != 4 {
		t.Fatalf("filtered trace lost totals: %+v", trace)
	}

	body, _ = get(t, addr, "/events?limit=2")
	trace = decode(body)
	if len(trace.Events) != 2 || trace.Events[0].Cycle != 30 || trace.Events[1].Cycle != 40 {
		t.Fatalf("limit did not keep the newest 2 events: %+v", trace.Events)
	}

	body, _ = get(t, addr, "/events?kind=repack&limit=1")
	trace = decode(body)
	if len(trace.Events) != 1 || trace.Events[0].Cycle != 40 {
		t.Fatalf("combined filter wrong: %+v", trace.Events)
	}

	if body, _ := get(t, addr, "/events?limit=0"); len(decode(body).Events) != 0 {
		t.Fatal("limit=0 returned events")
	}
	// A limit beyond the trace is a no-op, not an error.
	if body, _ := get(t, addr, "/events?limit=999"); len(decode(body).Events) != 4 {
		t.Fatal("oversized limit dropped events")
	}

	for _, path := range []string{
		"/events?kind=nope",
		"/events?limit=-1",
		"/events?limit=abc",
	} {
		if code, body := getStatus(t, addr, path); code != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d (%q), want 400", path, code, body)
		}
	}
}

func TestServerAttributionEndpoint(t *testing.T) {
	s, addr := startTestServer(t)

	// Before any run publishes, the endpoint serves the empty-shaped
	// snapshot: full component vector, zero totals.
	body, ctype := get(t, addr, "/attribution")
	if ctype != "application/json" {
		t.Fatalf("attribution content type %q", ctype)
	}
	var snap obs.AttributionSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/attribution not JSON: %v", err)
	}
	if len(snap.Components) != int(obs.NComponents) || snap.Accesses != 0 {
		t.Fatalf("empty attribution malformed: %d components, %d accesses", len(snap.Components), snap.Accesses)
	}

	a := obs.NewAttribution(4)
	a.Begin(100, 7, false)
	a.ExposedDRAM(10, 26)
	a.Exposed(obs.CompDecompress, 9)
	a.End(145)
	s.PublishAttribution(a.Snapshot())

	body, _ = get(t, addr, "/attribution")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/attribution not JSON: %v", err)
	}
	if snap.Accesses != 1 || snap.ChargedCycles != 45 {
		t.Fatalf("published snapshot lost: %+v", snap)
	}
	if snap.Components[obs.CompDecompress].ExposedCycles != 9 {
		t.Fatalf("component breakdown lost: %+v", snap.Components[obs.CompDecompress])
	}
}

func TestServerNoRunNoTracker(t *testing.T) {
	s := New(nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Without a run or grids, /metrics still exposes the harness gauges
	// and must parse.
	body, _ := get(t, addr, "/metrics")
	for _, want := range []string{"harness_uptime_seconds", "harness_size_memo_tables", "harness_size_memo_hits",
		"harness_run_memo_entries", "harness_run_memo_hits", "harness_run_memo_misses", "harness_run_memo_bypassed"} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %s:\n%s", want, body)
		}
	}
	if err := CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails validation: %v", err)
	}
	if body, _ := get(t, addr, "/progress"); strings.TrimSpace(body) == "" {
		t.Fatal("empty /progress body")
	}
	if body, _ := get(t, addr, "/timeseries"); !strings.Contains(body, "harness") {
		t.Fatalf("/timeseries = %q", body)
	}
}

func TestServerStartRewritesUnspecifiedHost(t *testing.T) {
	s := New(nil)
	addr, err := s.Start(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("addr = %q, want 127.0.0.1:PORT", addr)
	}
	if _, err := fmt.Sscanf(addr, "127.0.0.1:%d", new(int)); err != nil {
		t.Fatalf("addr %q not host:port", addr)
	}
}
