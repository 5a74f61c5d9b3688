package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"spstream/internal/core"
	"spstream/internal/sptensor"
)

func TestPercentileSupport(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := percentile(xs, 0.9); got != 9 {
		t.Fatalf("p90 of 1..10 = %v, want 9 (nearest rank)", got)
	}
	if got := percentile(xs, 0.5); got != 5 {
		t.Fatalf("p50 of 1..10 = %v, want 5", got)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestOpenLoopTimedFromSchedule stalls the first POST: every POST
// queued behind it must be timed from its scheduled send, so the
// stall shows in the later POSTs' latency, and not in the generator's
// own lateness.
func TestOpenLoopTimedFromSchedule(t *testing.T) {
	const stall = 150 * time.Millisecond
	var mu sync.Mutex
	posts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/ingest":
			mu.Lock()
			posts++
			first := posts == 1
			mu.Unlock()
			if first {
				time.Sleep(stall)
			}
		case "/v1/stats":
			mu.Lock()
			fmt.Fprintf(w, `{"t": %d}`, posts)
			mu.Unlock()
		}
	}))
	defer srv.Close()
	sp := &serveSpec{readRate: 20, poll: 2 * time.Millisecond}
	at := []float64{0, 0.01, 0.02, 0.03}
	bodies := make([][]byte, len(at))
	lr := drive(sp, srv.URL, bodies, at, []int{len(at)}, 0.3, 1)
	if len(lr.ingestMs) != len(at) || lr.postsFailed != 0 {
		t.Fatalf("posts timed %d failed %d", len(lr.ingestMs), lr.postsFailed)
	}
	stallMs := float64(stall / time.Millisecond)
	for i := 1; i < len(at); i++ {
		if min := stallMs - 1000*at[i]; lr.ingestMs[i] < min {
			t.Errorf("POST %d latency %.1f ms, want >= %.1f ms (queued behind the stall)", i, lr.ingestMs[i], min)
		}
	}
	if lr.lateMaxMs > stallMs/2 {
		t.Errorf("generator lateness %.1f ms counts the server's stall", lr.lateMaxMs)
	}
	for k, v := range lr.visibleAt[0] {
		if math.IsNaN(v) || v < at[k] {
			t.Errorf("window %d visible at %v", k+1, v)
		}
	}
}

// TestBurstSchedule checks the fixed open-loop schedule: each burst's
// POSTs are all due at its period's start, the rest keep the fixed
// rate in their slots, and the seed moves only the arrival times.
func TestBurstSchedule(t *testing.T) {
	sp := &serveSpec{post: 2000, rate: 2000, burst: 24000, period: 1.5}
	at, burst := sp.schedule(3, 1)
	other, _ := sp.schedule(3, 2)
	// Per period: 12 burst POSTs and slots at 0 and 1 s of a 1.5 s period.
	if len(at) != 28 || len(other) != len(at) {
		t.Fatalf("%d and %d POSTs, want 28", len(at), len(other))
	}
	moved := false
	for i := range at {
		p := math.Floor(at[i] / sp.period)
		switch {
		case burst[i] >= 0 && at[i] != float64(burst[i])*sp.period:
			t.Errorf("burst POST %d due at %v, not its period's start", i, at[i])
		case burst[i] < 0 && (at[i] < p*sp.period || at[i] >= (p+1)*sp.period):
			t.Errorf("POST %d due at %v, outside its period", i, at[i])
		}
		moved = moved || at[i] != other[i]
	}
	if !moved {
		t.Error("the seed does not move the arrival times")
	}
}

func ev(i, j, k int32) sptensor.Event {
	return sptensor.Event{Coord: []int32{i, j, k}, Value: 1}
}

// TestWindowShardMapping routes events through cluster.Router: rows
// below dims[0]/2 belong to shard 0, and each shard closes its own
// windows.
func TestWindowShardMapping(t *testing.T) {
	half := int32(serveDims[0] / 2)
	evs := []sptensor.Event{
		ev(0, 0, 0),      // 0: shard 0 #1
		ev(half, 1, 1),   // 1: shard 1 #1
		ev(half-1, 2, 2), // 2: shard 0 #2 → window (0,1)
		ev(half+5, 3, 3), // 3: shard 1 #2 → window (1,1)
		ev(half+6, 4, 4), // 4: shard 1 #3
		ev(half+7, 5, 5), // 5: shard 1 #4 → window (1,2)
		ev(3, 6, 6),      // 6: shard 0 #3
	}
	got, err := windowEnds(evs, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []windowEnd{{0, 1, 2}, {1, 1, 3}, {1, 2, 5}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("windowEnds = %v, want %v", got, want)
	}
	single, err := windowEnds(evs, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(single) != fmt.Sprint([]windowEnd{{0, 1, 2}, {0, 2, 5}}) {
		t.Fatalf("standalone windowEnds = %v", single)
	}
	subs, err := shardEvents(evs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs[0]) != 3 || len(subs[1]) != 4 {
		t.Fatalf("substreams of %d and %d events, want 3 and 4", len(subs[0]), len(subs[1]))
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 12 * ms, End: 15 * ms},
		{ID: 5, Name: "later", Start: 120 * ms, End: 130 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 60 * ms, 2: 17 * ms, 3: 30 * ms, 4: 3 * ms, 5: 10 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := uncoveredFrac(spans, 0, 200*ms); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("uncovered share = %v, want 0.45", got)
	}
	if got := selfByName(spans)["root"]; len(got) != 1 || got[0] != 60 {
		t.Errorf("root self times %v ms, want [60]", got)
	}
}

// TestModelCheckRejectsPerturbedFactor builds a reference model and
// its JSON rendering, then perturbs one value by one ulp.
func TestModelCheckRejectsPerturbedFactor(t *testing.T) {
	evs := genEvents(7, 3*500, 500)
	want, fits, err := replayWindows(evs, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 3 || want.T != 3 {
		t.Fatalf("replay committed %d windows (t=%d), want 3", len(fits), want.T)
	}
	render := func() *factorsDoc {
		doc := &factorsDoc{T: want.T, S: append([]float64(nil), want.S...)}
		for _, f := range want.Factors {
			rows := make([][]float64, f.Rows)
			for i := range rows {
				rows[i] = append([]float64(nil), f.Row(i)...)
			}
			doc.Factors = append(doc.Factors, rows)
		}
		// The daemon serves JSON; the check must survive the round trip.
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var back factorsDoc
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		return &back
	}
	if err := compareModel(want, render()); err != nil {
		t.Fatalf("unperturbed model rejected: %v", err)
	}
	bad := render()
	bad.Factors[1][5][3] = math.Nextafter(bad.Factors[1][5][3], math.Inf(1))
	if err := compareModel(want, bad); err == nil || !strings.Contains(err.Error(), "mode 1 row 5 col 3") {
		t.Fatalf("perturbed factor not rejected: %v", err)
	}
	bad = render()
	bad.S[2] = math.Nextafter(bad.S[2], math.Inf(1))
	if compareModel(want, bad) == nil {
		t.Fatal("perturbed temporal row not rejected")
	}
	bad = render()
	bad.T--
	if compareModel(want, bad) == nil {
		t.Fatal("wrong slice counter not rejected")
	}
}

func TestReplaySliceCheck(t *testing.T) {
	ref := core.SliceResult{Iters: 8, Fit: 0.25}
	if err := sameSlice(core.SliceResult{Iters: 8, Fit: 0.25 * (1 + fitTol/2)}, ref); err != nil {
		t.Fatalf("fit within tolerance rejected: %v", err)
	}
	if sameSlice(core.SliceResult{Iters: 8, Fit: 0.25 * (1 + 2*fitTol)}, ref) == nil {
		t.Fatal("fit just beyond tolerance accepted")
	}
	if sameSlice(core.SliceResult{Iters: 3, Fit: 0.25}, ref) == nil {
		t.Fatal("early stop accepted")
	}
	if sameSlice(core.SliceResult{Iters: 8, Fit: 0.26}, ref) == nil {
		t.Fatal("fit mismatch accepted")
	}
	if sameSlice(core.SliceResult{Iters: 8, Fit: math.NaN()}, ref) == nil {
		t.Fatal("NaN fit accepted")
	}
}

func TestStatCPUSeconds(t *testing.T) {
	line := []byte("4242 (spst (x) d) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 31 0 0 20 0 9 0 100 0 0")
	if got := statCPUSeconds(line); got != 2.81 {
		t.Fatalf("utime+stime = %v s, want 2.81", got)
	}
	if !math.IsNaN(statCPUSeconds([]byte("4242 (cut"))) {
		t.Fatal("truncated stat line parsed")
	}
	if got := cpuSeconds(os.Getpid()); math.IsNaN(got) || got < 0 {
		t.Fatalf("own CPU time = %v", got)
	}
}

func TestLedgerChecks(t *testing.T) {
	st := &statsDoc{Overload: map[string]int64{"produced": 10, "processed": 10}}
	if err := ledgerBalanced(st, 10); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	st.Overload["shed_newest"] = 1
	if ledgerBalanced(st, 10) == nil {
		t.Fatal("unbalanced ledger accepted")
	}
	gw := &statsDoc{Overload: map[string]int64{"produced": 500, "forwarded": 499, "pending": 1}}
	if gatewayLedger(gw, 500) == nil {
		t.Fatal("gateway ledger with an unforwarded event accepted")
	}
	gw.Overload["forwarded"], gw.Overload["pending"] = 500, 0
	if err := gatewayLedger(gw, 500); err != nil {
		t.Fatalf("balanced gateway ledger rejected: %v", err)
	}
}

func TestCompareLabelsHostDelta(t *testing.T) {
	host := hostInfo{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1"}
	other := host
	other.CPU = "y"
	rec := func(h hostInfo, v float64) record {
		return record{Workload: "w", Host: h, Metrics: map[string]metric{"visible_ms_p50": {v, "ms"}}}
	}
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"visible_ms_p50","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	same := compareRecords([]record{rec(host, 10)}, []record{rec(host, 20)}, spec)
	if len(same) != 1 || !strings.HasSuffix(same[0], "regression") {
		t.Fatalf("same-host slowdown reported as %q", same)
	}
	cross := compareRecords([]record{rec(host, 10)}, []record{rec(other, 20)}, spec)
	if len(cross) != 1 || !strings.HasSuffix(cross[0], "host-delta") {
		t.Fatalf("cross-host slowdown reported as %q", cross)
	}
}

// TestBenchmarkJSONNamesMatch keeps BENCHMARK.json and the metric
// lists the runs print in step.
func TestBenchmarkJSONNamesMatch(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, ",")
	}
	if got, want := names(spec.Workloads), strings.Join(workloads, ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end %s, want %s", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("per_layer %s, want %s", got, want)
	}
}
