package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spstream/internal/cluster"
	"spstream/internal/core"
	"spstream/internal/resilience"
	"spstream/internal/serve"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// serveSpec is one serving workload. Rates are absolute and fixed in
// the benchmark: a rate calibrated per run would move with the code
// under test.
type serveSpec struct {
	shards  int     // 0: one spstreamd; n: spstream-gateway in front of n shards
	workers int     // GOMAXPROCS, and so solver workers, of each spstreamd
	window  int     // events per window, per daemon
	queue   int     // daemon queue capacity, in windows
	post    int     // events per POST body
	rate    float64 // events per second outside bursts
	// burst events are due together at the start of every period and
	// go out back to back on the POST connection; 0 = steady. Sending a
	// burst at once, rather than at a high rate, keeps the queue wait
	// it causes proportional to the solve time instead of to the small
	// difference between solve time and arrival spacing, which would
	// magnify the host's noise.
	burst    int
	period   float64 // burst period, seconds
	readRate float64 // reader GETs per second
	// factorsEvery makes every n-th read a GET /v1/factors?mode=0; the
	// others are GET /v1/reconstruct. The gateway's merged factors read
	// fetches every shard's full factors (about 0.7 s on an idle 2-CPU
	// host), which would blind the visibility poll sharing its
	// connection, so the sharded workload reads points only; the merge
	// is timed in the traced run.
	factorsEvery int
	// poll is the visibility poll period, small against visible_ms_p50.
	poll time.Duration
}

var serveSpecs = map[string]*serveSpec{
	// One daemon well below capacity (a 2000-event window solves in
	// about 30 ms; 7 windows arrive per second): visible latency is one
	// spCP solve plus snapshot publish; the spill WAL stays idle.
	"serve-steady": {workers: runtime.NumCPU(), window: 2000, queue: 8, post: 500, rate: 14000, readRate: 100, factorsEvery: 50, poll: 10 * time.Millisecond},
	// Gateway + two one-worker shards. Each 8000-event burst puts about
	// 6 windows on the hot shard at once, far above what it clears in
	// one window's time, so the queue overflows into the spill WAL; the
	// mean rate (10000 events/s) keeps the hot shard well below capacity.
	// A shard's HTTP handler shares its one CPU with the solver, so it
	// takes in one forwarded batch per scheduler time slice while a
	// window is being solved: with 500-event POSTs the windows would
	// arrive about as fast as they are solved, and whether the queue
	// overflows at all would be left to chance. 2000-event POSTs bring
	// about 1.6 windows per forward. Bursts are short and frequent
	// because the windows of one burst share the host's state at that
	// moment: a run's median rests on as many bursts as possible. Every
	// gateway read waits for the owning shard's scheduler slice, so the
	// reader is slow enough not to hold up the visibility polls that
	// share its connection.
	"serve-burst-sharded": {shards: 2, workers: 1, window: 1000, queue: 1, post: 2000, rate: 2000, burst: 8000,
		period: 1, readRate: 5, poll: 10 * time.Millisecond},
}

const (
	lateLimitMs = 250.0            // gen.late_ms_max above this makes the run invalid
	drainWait   = 60 * time.Second // how long windows may take to become visible after the load
	checkpointN = 10               // checkpoint every N slices
)

// schedule returns the scheduled send offset (seconds) of every POST
// in a run of the given length, and the burst each POST belongs to
// (-1 outside a burst). A burst's POSTs are all due at the start of
// its period. Every other POST has a slot at the fixed rate and is
// sent at a seed-drawn point within the first 90% of its slot, so the
// rate and the POST count are fixed and the arrivals vary with the
// seed.
func (sp *serveSpec) schedule(seconds float64, seed uint64) (at []float64, burst []int) {
	r := synth.NewRNG(seed*0x9E3779B97F4A7C15 + 7)
	slots := func(from, to, rate float64, b int) {
		step := float64(sp.post) / rate
		for t := from; t < to-1e-9; t += step {
			at = append(at, t+0.9*step*r.Float64())
			burst = append(burst, b)
		}
	}
	if sp.burst == 0 {
		slots(0, seconds, sp.rate, -1)
		return at, burst
	}
	for p := 0; float64(p)*sp.period < seconds; p++ {
		base := float64(p) * sp.period
		for i := 0; i < sp.burst/sp.post; i++ {
			at = append(at, base)
			burst = append(burst, p)
		}
		slots(base, base+sp.period, sp.rate, -1)
	}
	return at, burst
}

// windowEnd is the event that completes one daemon window.
type windowEnd struct {
	shard, k int // k is the 1-based window number on that shard
	event    int
}

// windowEnds maps every completed window to the event that completes
// it. With shards, events are routed through cluster.Router exactly as
// the gateway routes them, and each shard forms its own windows.
func windowEnds(evs []sptensor.Event, window, shards int) ([]windowEnd, error) {
	n := shards
	if n == 0 {
		n = 1
	}
	router, err := cluster.NewRouter(serveDims, n)
	if err != nil {
		return nil, err
	}
	count := make([]int, n)
	var out []windowEnd
	for e, ev := range evs {
		s, err := router.ShardFor(ev)
		if err != nil {
			return nil, err
		}
		count[s]++
		if count[s]%window == 0 {
			out = append(out, windowEnd{shard: s, k: count[s] / window, event: e})
		}
	}
	return out, nil
}

// serveOptions mirrors spstreamd's decomposer configuration.
func serveOptions(workers int) core.Options {
	return core.Options{
		Rank:       serveRank,
		Algorithm:  core.SpCPStream,
		Mu:         serveMu,
		TrackFit:   true,
		Normalize:  true,
		Workers:    workers,
		Resilience: &resilience.Config{Policy: resilience.SkipSlice},
	}
}

// daemon is one started server process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startProcess runs bin with args, waits for its "listening on ADDR"
// line and returns its base URL.
func startProcess(bin string, args, env []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), " listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		_ = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening (log %s)", filepath.Base(bin), logPath)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not start listening", filepath.Base(bin))
	}
}

// stop asks the process to drain and exit, kills it if it does not,
// and waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMiB reads the process's resident high-water mark.
func (d *daemon) peakRSSMiB() float64 { return peakRSSMiB(d.cmd.Process.Pid) }

// peakRSSMiB reads a process's resident high-water mark (VmHWM).
func peakRSSMiB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// clockTicks is the unit of utime and stime in /proc/<pid>/stat
// (USER_HZ, 100 on every Linux architecture Go supports).
const clockTicks = 100

// cpuSeconds reads a process's user plus system CPU time.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return math.NaN()
	}
	return statCPUSeconds(b)
}

// statCPUSeconds parses utime + stime from a /proc/<pid>/stat line.
// The command name is in parentheses and may hold spaces and
// parentheses; the fields after its last ')' start at the state,
// field 3, so utime (14) and stime (15) are the 12th and 13th.
func statCPUSeconds(b []byte) float64 {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return math.NaN()
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return math.NaN()
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return math.NaN()
	}
	return (utime + stime) / clockTicks
}

// cluster is the set of processes under test: one daemon, or a
// gateway (front) with its shards.
type deployment struct {
	front  *daemon
	shards []*daemon // the daemons that solve (front itself when standalone)
	all    []*daemon
}

// cpuSeconds is the CPU time all the processes have used so far.
func (c *deployment) cpuSeconds() float64 {
	sum := 0.0
	for _, d := range c.all {
		sum += cpuSeconds(d.cmd.Process.Pid)
	}
	return sum
}

func (c *deployment) stop() {
	for i := len(c.all) - 1; i >= 0; i-- {
		c.all[i].stop()
	}
}

// startDeployment starts the workload's processes with fresh state
// directories and waits until the front answers /readyz with 200.
func startDeployment(sp *serveSpec, bin, dir string, client *http.Client) (*deployment, error) {
	dims := fmt.Sprintf("%d,%d,%d", serveDims[0], serveDims[1], serveDims[2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &deployment{}
	daemonArgs := func(i int) []string {
		sub := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		args := []string{"-addr", "127.0.0.1:0", "-dims", dims, "-rank", strconv.Itoa(serveRank),
			"-alg", "spcp", "-window", strconv.Itoa(sp.window), "-queue", strconv.Itoa(sp.queue),
			"-every", strconv.Itoa(checkpointN), "-checkpoint-dir", filepath.Join(sub, "ckpt"),
			"-spill-dir", filepath.Join(sub, "spill")}
		if sp.shards > 0 {
			args = append(args, "-shard-id", strconv.Itoa(i), "-shard-count", strconv.Itoa(sp.shards))
		}
		return args
	}
	n := max(sp.shards, 1)
	env := []string{fmt.Sprintf("GOMAXPROCS=%d", sp.workers)}
	var urls []string
	for i := 0; i < n; i++ {
		d, err := startProcess(filepath.Join(bin, "spstreamd"), daemonArgs(i), env, filepath.Join(dir, fmt.Sprintf("shard%d.log", i)))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.shards = append(c.shards, d)
		c.all = append(c.all, d)
		urls = append(urls, d.base)
	}
	c.front = c.shards[0]
	if sp.shards > 0 {
		g, err := startProcess(filepath.Join(bin, "spstream-gateway"),
			[]string{"-addr", "127.0.0.1:0", "-dims", dims, "-shards", strings.Join(urls, ","),
				"-probe-interval", "50ms", "-backoff-cap", "500ms"},
			nil, filepath.Join(dir, "gateway.log"))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.front = g
		c.all = append(c.all, g)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, d := range append(c.shards, c.front) {
		for {
			resp, err := client.Get(d.base + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				c.stop()
				return nil, fmt.Errorf("%s never became ready", d.base)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return c, nil
}

// oneConn returns a client that keeps a single connection.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// statsDoc is the part of /v1/stats (daemon or gateway) the benchmark
// reads.
type statsDoc struct {
	T          int              `json:"t"`
	QueueDepth int              `json:"queue_depth"`
	Overload   map[string]int64 `json:"overload"`
	Shards     []struct {
		T  int  `json:"t"`
		OK bool `json:"ok"`
	} `json:"shards"`
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// committed returns each shard's committed slice count from one stats
// read at the front.
func committed(st *statsDoc, shards int) []int {
	if shards == 0 {
		return []int{st.T}
	}
	out := make([]int, shards)
	for i := range out {
		out[i] = -1
		if i < len(st.Shards) && st.Shards[i].OK {
			out[i] = st.Shards[i].T
		}
	}
	return out
}

// loadResult is what the load generator observed. All times are
// offsets from the run start, in seconds.
type loadResult struct {
	ingestMs, readMs []float64
	postsFailed      int
	readsFailed      int
	lateMaxMs        float64     // generator lateness, see drive
	visibleAt        [][]float64 // [shard][k-1]: first time a read showed window k committed
}

// drive runs the open-loop load: POSTs in order on one connection,
// reads and visibility polls on the other, then polls until every
// completed window is visible or drainWait passes.
func drive(sp *serveSpec, front string, bodies [][]byte, at []float64, nWindows []int, seconds float64, seed uint64) *loadResult {
	lr := &loadResult{visibleAt: make([][]float64, len(nWindows))}
	for s, n := range nWindows {
		lr.visibleAt[s] = make([]float64, n)
		for k := range lr.visibleAt[s] {
			lr.visibleAt[s][k] = math.NaN()
		}
	}
	postClient, readClient := oneConn(), oneConn()
	defer postClient.CloseIdleConnections()
	defer readClient.CloseIdleConnections()
	start := time.Now()
	since := func() float64 { return time.Since(start).Seconds() }
	sleepUntil := func(off float64) {
		if d := time.Duration((off - since()) * float64(time.Second)); d > 0 {
			time.Sleep(d)
		}
	}

	postsDone := make(chan struct{})
	go func() {
		defer close(postsDone)
		prevEnd := 0.0
		for i, body := range bodies {
			sleepUntil(at[i])
			// The generator is late when it sends after both the POST's
			// scheduled time and the end of the previous POST; waiting
			// behind an earlier POST is the server's latency, charged to
			// the POSTs from their scheduled time.
			if late := 1000 * (since() - math.Max(at[i], prevEnd)); late > lr.lateMaxMs {
				lr.lateMaxMs = late
			}
			resp, err := postClient.Post(front+"/v1/ingest", "text/plain", bytes.NewReader(body))
			prevEnd = since()
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			lr.ingestMs = append(lr.ingestMs, 1000*(since()-at[i]))
			if err != nil || resp.StatusCode != http.StatusOK {
				lr.postsFailed++
			}
		}
	}()

	seen := make([]int, len(nWindows))
	poll := func() {
		var st statsDoc
		if err := getJSON(readClient, front+"/v1/stats", &st); err != nil {
			return
		}
		now := since()
		for s, t := range committed(&st, sp.shards) {
			for ; seen[s] < t && seen[s] < nWindows[s]; seen[s]++ {
				lr.visibleAt[s][seen[s]] = now
			}
		}
	}
	allSeen := func() bool {
		for s, n := range nWindows {
			if seen[s] < n {
				return false
			}
		}
		return true
	}
	pick := synth.NewRNG(seed*0x9E3779B97F4A7C15 + 11)
	readURL := func(j int) string {
		if sp.factorsEvery > 0 && j%sp.factorsEvery == 0 {
			return front + "/v1/factors?mode=0"
		}
		return fmt.Sprintf("%s/v1/reconstruct?coord=%d,%d,%d", front,
			1+pick.Intn(serveDims[0]), 1+pick.Intn(serveDims[1]), 1+pick.Intn(serveDims[2]))
	}
	// Polls take priority when due, so a reader that falls behind its
	// schedule cannot starve the visibility measurement.
	nextRead, nextPoll := 0, 0.0
	for since() < seconds {
		now, due := since(), float64(nextRead)/sp.readRate
		switch {
		case now >= nextPoll:
			poll()
			nextPoll = math.Max(nextPoll+sp.poll.Seconds(), since())
		case now >= due:
			resp, err := readClient.Get(readURL(nextRead))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			lr.readMs = append(lr.readMs, 1000*(since()-due))
			if err != nil || resp.StatusCode != http.StatusOK {
				lr.readsFailed++
			}
			nextRead++
		default:
			sleepUntil(math.Min(due, nextPoll))
		}
	}
	<-postsDone
	deadline := since() + drainWait.Seconds()
	for !allSeen() && since() < deadline {
		poll()
		sleepUntil(since() + sp.poll.Seconds())
	}
	return lr
}

// factorsDoc is GET /v1/factors without ?mode.
type factorsDoc struct {
	T       int           `json:"t"`
	S       []float64     `json:"s"`
	Factors [][][]float64 `json:"factors"`
}

// compareModel requires the served model to equal the reference
// snapshot bit for bit.
func compareModel(want *serve.FactorSnapshot, got *factorsDoc) error {
	if got.T != want.T {
		return fmt.Errorf("served t=%d, replay t=%d", got.T, want.T)
	}
	if len(got.S) != len(want.S) || len(got.Factors) != len(want.Factors) {
		return fmt.Errorf("served model shape differs from replay")
	}
	for k := range want.S {
		if math.Float64bits(got.S[k]) != math.Float64bits(want.S[k]) {
			return fmt.Errorf("s[%d] = %.17g, replay %.17g", k, got.S[k], want.S[k])
		}
	}
	for m, f := range want.Factors {
		if len(got.Factors[m]) != f.Rows {
			return fmt.Errorf("mode %d: %d rows, replay %d", m, len(got.Factors[m]), f.Rows)
		}
		for i, row := range got.Factors[m] {
			for k, v := range row {
				if w := f.At(i, k); math.Float64bits(v) != math.Float64bits(w) {
					return fmt.Errorf("mode %d row %d col %d = %.17g, replay %.17g", m, i, k, v, w)
				}
			}
		}
	}
	return nil
}

// shardEvents splits the stream into each shard's substream, in order.
func shardEvents(evs []sptensor.Event, shards int) ([][]sptensor.Event, error) {
	if shards == 0 {
		return [][]sptensor.Event{evs}, nil
	}
	router, err := cluster.NewRouter(serveDims, shards)
	if err != nil {
		return nil, err
	}
	return router.Partition(evs)
}

// replayWindows solves one daemon's substream in process, window by
// window, and returns its final snapshot and per-window fits.
func replayWindows(evs []sptensor.Event, window, workers int) (*serve.FactorSnapshot, []float64, error) {
	d, err := core.NewDecomposer(serveDims, serveOptions(workers))
	if err != nil {
		return nil, nil, err
	}
	acc := sptensor.NewWindowAccumulator(serveDims, window)
	var fits []float64
	fit := math.NaN()
	for _, ev := range evs {
		if x := acc.Add(ev); x != nil {
			res, err := d.ProcessSlice(x)
			if err != nil {
				return nil, nil, err
			}
			fit = res.Fit
			fits = append(fits, fit)
		}
	}
	return serve.TakeSnapshot(d, fit), fits, nil
}

// ledgerBalanced checks a daemon's /v1/stats overload ledger:
// produced + spill_recovered == processed + failed + coalesced + shed +
// spill_pending + queue_depth, with every window admitted.
func ledgerBalanced(st *statsDoc, windows int) error {
	o := st.Overload
	shed := o["shed_newest"] + o["shed_oldest"] + o["shed_stale"] + o["shed_drain"] + o["shed_breaker"] + o["shed_spill"]
	lhs := o["produced"] + o["spill_recovered"]
	rhs := o["processed"] + o["failed"] + o["coalesced"] + shed + o["spill_pending"] + int64(st.QueueDepth)
	if lhs != rhs {
		return fmt.Errorf("ledger: produced+recovered %d != processed+failed+coalesced+shed+pending+queued %d (%v)", lhs, rhs, o)
	}
	if o["produced"] != int64(windows) || o["processed"] != int64(windows) {
		return fmt.Errorf("ledger: produced %d processed %d, want %d windows", o["produced"], o["processed"], windows)
	}
	return nil
}

// gatewayLedger checks produced == forwarded + failed + shed + pending,
// with every posted event forwarded.
func gatewayLedger(st *statsDoc, events int) error {
	o := st.Overload
	if o["produced"] != o["forwarded"]+o["failed"]+o["shed"]+o["pending"] {
		return fmt.Errorf("gateway ledger unbalanced: %v", o)
	}
	if o["produced"] != int64(events) || o["forwarded"] != int64(events) {
		return fmt.Errorf("gateway ledger: produced %d forwarded %d, want %d events", o["produced"], o["forwarded"], events)
	}
	return nil
}

// serveInputs is one seed's generated serving load.
type serveInputs struct {
	at     []float64
	burst  []int
	events []sptensor.Event
	bodies [][]byte
	ends   []windowEnd
	perSh  []int // completed windows per shard
	post   int   // events per POST
}

// sentAt is the scheduled send offset of the POST carrying event e.
func (in *serveInputs) sentAt(e int) float64 { return in.at[e/in.post] }

func makeServeInputs(sp *serveSpec, seed uint64, seconds float64) (*serveInputs, error) {
	in := &serveInputs{post: sp.post}
	in.at, in.burst = sp.schedule(seconds, seed)
	in.events = genEvents(serveTrace, len(in.at)*sp.post, sp.window)
	for i := range in.at {
		in.bodies = append(in.bodies, renderBody(in.events[i*sp.post:(i+1)*sp.post]))
	}
	n := sp.shards
	if n == 0 {
		n = 1
	}
	var err error
	in.ends, err = windowEnds(in.events, sp.window, sp.shards)
	if err != nil {
		return nil, err
	}
	in.perSh = make([]int, n)
	for _, w := range in.ends {
		in.perSh[w.shard]++
	}
	return in, nil
}

// serveWorkload is the untraced serving run.
func serveWorkload(name string, seed uint64, seconds float64, bin, work string) (*result, error) {
	sp := serveSpecs[name]
	in, err := makeServeInputs(sp, seed, seconds)
	if err != nil {
		return nil, err
	}
	ctl := oneConn()
	defer ctl.CloseIdleConnections()
	var dep *deployment
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if dep != nil {
			dep.stop()
		}
		start := time.Now()
		dep, err = startDeployment(sp, bin, filepath.Join(work, fmt.Sprintf("setup%d", i)), ctl)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer dep.stop()

	cpu0 := dep.cpuSeconds()
	lr := drive(sp, dep.front.base, in.bodies, in.at, in.perSh, seconds, seed)
	cpu := dep.cpuSeconds() - cpu0

	r := newResult(name)
	var vis []float64
	invisible := 0
	for _, w := range in.ends {
		v := lr.visibleAt[w.shard][w.k-1]
		if math.IsNaN(v) {
			invisible++
			continue
		}
		vis = append(vis, 1000*(v-in.sentAt(w.event)))
	}
	r.set("setup_s", median(setups), "s")
	r.set("visible_ms_p50", percentile(vis, 0.5), "ms")
	r.set("visible_ms_p90", percentile(vis, 0.9), "ms")
	// The load is open loop, so events per second of wall time would be
	// the offered rate; per second of the serving processes' CPU time
	// it is the program's cost per event.
	r.set("nnz_per_s", float64(len(vis)*sp.window)/cpu, "1/s")
	r.set("serve.cpu_s", cpu, "s")
	r.set("windows", float64(len(in.ends)), "count")
	r.set("visible_tail_supported", boolNum(supports(len(vis), 0.9)), "bool")
	r.timing("ingest_ms", lr.ingestMs, "ms")
	r.timing("read_ms", lr.readMs, "ms")
	r.set("gen.late_ms_max", lr.lateMaxMs, "ms")
	r.set("posts", float64(len(in.bodies)), "count")
	r.set("reads", float64(len(lr.readMs)), "count")
	if sp.burst > 0 {
		r.set("burst_clear_s", burstClear(in, lr), "s")
	}
	r.attempted = len(in.bodies) + len(lr.readMs) + len(in.ends)
	r.failed = lr.postsFailed + lr.readsFailed + invisible

	// Peak memory, ledgers and final models, read once the load is over.
	rss := 0.0
	for _, d := range dep.all {
		rss += d.peakRSSMiB()
	}
	r.set("peak_mem_mib", rss, "MiB")

	subs, err := shardEvents(in.events, sp.shards)
	if err != nil {
		return nil, err
	}
	var fits []float64
	spilled, queueHigh := int64(0), int64(0)
	shardEvts := make([]float64, len(dep.shards))
	for s, d := range dep.shards {
		shardEvts[s] = float64(len(subs[s]))
		want, wfits, err := replayWindows(subs[s], sp.window, sp.workers)
		if err != nil {
			return nil, err
		}
		fits = append(fits, wfits...)
		var got factorsDoc
		err = getJSON(ctl, d.base+"/v1/factors", &got)
		if err == nil {
			err = compareModel(want, &got)
		}
		r.check(fmt.Sprintf("shard %d model equals in-process spCP replay", s), err)
		var st statsDoc
		err = getJSON(ctl, d.base+"/v1/stats", &st)
		if err == nil {
			err = ledgerBalanced(&st, in.perSh[s])
			spilled += st.Overload["spilled"]
			queueHigh = max(queueHigh, st.Overload["queue_high"])
		}
		r.check(fmt.Sprintf("shard %d ledger balances", s), err)
	}
	if sp.shards > 0 {
		var st statsDoc
		err := getJSON(ctl, dep.front.base+"/v1/stats", &st)
		if err == nil {
			err = gatewayLedger(&st, len(in.events))
		}
		r.check("gateway ledger balances", err)
		r.set("cluster.shard_skew", maxOf(shardEvts)/mean(shardEvts), "ratio")
	}
	r.set("fit_mean", mean(fits), "fit")
	r.set("ingest.spilled", float64(spilled), "count")
	r.set("ingest.queue_high", float64(queueHigh), "count")
	if sp.burst > 0 {
		r.validity("ingest.spilled > 0", spilled > 0)
	} else {
		r.validity("ingest.spilled == 0", spilled == 0)
	}
	r.validity(fmt.Sprintf("gen.late_ms_max <= %g", lateLimitMs), lr.lateMaxMs <= lateLimitMs)
	r.validity("visible_ms_p90 has >= 10 windows beyond it", supports(len(vis), 0.9))
	return r, nil
}

// burstClear is the mean, over bursts, of the time from a burst's last
// scheduled POST until every window completed by the burst's events is
// visible.
func burstClear(in *serveInputs, lr *loadResult) float64 {
	end := map[int]float64{}
	clear := map[int]float64{}
	for i, b := range in.burst {
		if b >= 0 {
			end[b] = math.Max(end[b], in.at[i])
		}
	}
	for _, w := range in.ends {
		b := in.burst[w.event/in.post]
		if b < 0 {
			continue
		}
		clear[b] = math.Max(clear[b], lr.visibleAt[w.shard][w.k-1])
	}
	var xs []float64
	for b, c := range clear {
		xs = append(xs, c-end[b])
	}
	return mean(xs)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
