package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spstream/internal/cluster"
	"spstream/internal/core"
	"spstream/internal/dense"
	"spstream/internal/ingest"
	"spstream/internal/ingest/wal"
	"spstream/internal/resilience"
	"spstream/internal/roofline"
	"spstream/internal/serve"
	"spstream/internal/sptensor"
	"spstream/internal/sptensor/ooc"
	"spstream/internal/trace"
)

// The traced run replays a workload's generated inputs in process,
// through each layer's public entry points, and records a span around
// every call. It reports per-layer self times (duration minus child
// spans), the share of traced wall time no span covers, and the
// tracing overhead: the same in-process pass run once without spans
// and once with them.

// kernelReps is how many times each kernel is timed per mode.
const kernelReps = 3

func tracedRun(name string, seed uint64, seconds float64, work, out string) (*result, error) {
	r := newResult(name)
	rec := newRecorder()
	var err error
	if sp, ok := replaySpecs[name]; ok {
		err = tracedReplay(r, rec, sp, seed, seconds, work)
	} else if sp := serveSpecs[name]; sp != nil {
		err = tracedServe(r, rec, sp, seed, seconds, work)
	} else {
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	for lname, self := range selfByName(rec.snapshot()) {
		r.timing("self."+lname+"_ms", self, "ms")
	}
	gbps, size := streamProbe()
	r.set("host.stream_gbps", gbps, "GB/s")
	r.set("host.stream_array_bytes", float64(size), "bytes")
	r.set("host.llc_bytes", float64(llcBytes()), "bytes")
	r.set("mttkrp.roofline_frac", r.metrics["mttkrp.kernel_gbps"].Value/gbps, "share")
	if err := rec.write(out); err != nil {
		return nil, err
	}
	return r, nil
}

// timing reports a latency sample as its median and its highest
// supported percentile.
func (r *result) timing(name string, samples []float64, unit string) {
	if len(samples) == 0 {
		return
	}
	r.set(name+"_p50", percentile(samples, 0.5), unit)
	if q := tailPercentile(len(samples)); q > 0.5 {
		r.set(name+"_p"+strings.TrimPrefix(strconv.FormatFloat(100*q, 'f', -1, 64), "0"), percentile(samples, q), unit)
	}
	r.set(name+"_n", float64(len(samples)), "count")
}

// spansNamed returns the spans called name within [lo, hi].
func spansNamed(spans []span, name string, lo, hi time.Duration) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && s.Start >= lo && s.End <= hi {
			out = append(out, s)
		}
	}
	return out
}

func durations(spans []span, scale time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(scale)
	}
	return out
}

func sumDur(spans []span) time.Duration {
	var t time.Duration
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

// setPhases reports the solver's per-iteration phase times (paper
// Fig. 8) from the decomposer's breakdown.
func (r *result) setPhases(bd *trace.Breakdown) {
	per := bd.PerIter()
	for p := 0; p < trace.NumPhases; p++ {
		r.set("core.phase."+strings.ToLower(trace.Phase(p).String())+"_ms", ms(per[p]), "ms")
	}
}

// setKernels times plan and CSF alone on one slice with the solver's
// factors and returns their mix in the share the selector chose.
func (r *result) setKernels(x *sptensor.Tensor, factors []*dense.Matrix, workers int, csfFrac float64) (float64, error) {
	plan, err := timePlan(x, factors, workers, kernelReps)
	if err != nil {
		return 0, err
	}
	cs, err := timeCSF(x, factors, workers, kernelReps)
	if err != nil {
		return 0, err
	}
	r.set("mttkrp.plan_gbps", plan.gbps, "GB/s")
	r.set("csf.gbps", cs.gbps, "GB/s")
	r.set("mttkrp.flops_per_byte", plan.flopsPB, "flop/B (computed)")
	return csfFrac*cs.gbps + (1-csfFrac)*plan.gbps, nil
}

func factorsOf(d *core.Decomposer) []*dense.Matrix {
	out := make([]*dense.Matrix, len(d.Dims()))
	for m := range out {
		out[m] = d.Factor(m)
	}
	return out
}

func csfShare(sched []byte) float64 {
	if len(sched) == 0 {
		return 0
	}
	return float64(bytes.Count(sched, []byte("C"))) / float64(len(sched))
}

// tracedSource times every block read of an out-of-core slice.
type tracedSource struct {
	sptensor.BlockSource
	rec           *recorder
	parent, trace int
	bytes         *atomic.Int64 // decoded coordinate and value bytes
}

func (s *tracedSource) Block(b int) (*sptensor.Tensor, error) {
	id := s.rec.begin("ooc.block", s.parent, s.trace)
	x, err := s.BlockSource.Block(b)
	s.rec.end(id)
	if err == nil {
		s.bytes.Add(int64(x.NNZ() * (4*len(x.Dims) + 8)))
	}
	return x, err
}

// replayTracer is the per-slice call with spans: the slice root, the
// file open, the solve (with block reads beneath it) and the snapshot
// that makes the slice visible to a read.
type replayTracer struct {
	rec        *recorder
	csf        []float64
	admm       int
	lastPath   string
	blockBytes atomic.Int64
}

func (tr *replayTracer) solve(d *core.Decomposer, f *sliceFeed, t int) (core.SliceResult, error) {
	if t == 0 {
		return solveSlice(d, f, t) // the warm-up slice is not traced
	}
	if t == 1 {
		d.ResetBreakdown()
	}
	root := tr.rec.begin("replay.slice", 0, t)
	defer tr.rec.end(root)
	var res core.SliceResult
	var err error
	if !f.sp.ooc {
		id := tr.rec.begin("core.solve", root, t)
		res, err = d.ProcessSlice(f.cur)
		tr.rec.end(id)
	} else {
		id := tr.rec.begin("ooc.open", root, t)
		rd, oerr := ooc.Open(f.path(t))
		tr.rec.end(id)
		if oerr != nil {
			return res, oerr
		}
		id = tr.rec.begin("core.solve", root, t)
		var src sptensor.BlockSource = rd
		if tr.rec != nil {
			src = &tracedSource{BlockSource: rd, rec: tr.rec, parent: id, trace: t, bytes: &tr.blockBytes}
		}
		res, err = d.ProcessBlockSlice(src)
		tr.rec.end(id)
		rd.Close()
		tr.lastPath = f.path(t)
	}
	if err != nil {
		return res, err
	}
	id := tr.rec.begin("publish.snapshot", root, t)
	serve.TakeSnapshot(d, res.Fit)
	tr.rec.end(id)
	tr.csf = append(tr.csf, csfShare(d.KernelSchedule(nil)))
	tr.admm += res.ADMMIters
	return res, nil
}

func tracedReplay(r *result, rec *recorder, sp replaySpec, seed uint64, seconds float64, work string) error {
	// Traced pass first (half the time), then the same slices untraced.
	tr := &replayTracer{rec: rec}
	dir := filepath.Join(work, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, d, run, err := runReplay(rec, sp, seed, seconds/2, replayMaxSlices, dir, tr.solve)
	if err != nil {
		return err
	}
	// The traced window runs from the first traced slice to the last.
	roots := spansNamed(rec.snapshot(), "replay.slice", 0, time.Since(rec.start))
	lo, hi := roots[0].Start, roots[len(roots)-1].End
	plain := &replayTracer{}
	dir2 := filepath.Join(work, "plain")
	if err := os.MkdirAll(dir2, 0o755); err != nil {
		return err
	}
	_, _, base, err := runReplay(nil, sp, seed, math.Inf(1), len(run.results), dir2, plain.solve)
	if err != nil {
		return err
	}
	spans := rec.snapshot()
	n := float64(len(run.wall))
	r.attempted = len(run.results)
	r.set("trace.uncovered_frac", uncoveredFrac(spans, lo, hi), "share")
	r.set("trace.overhead_frac", median(run.wall)/median(base.wall)-1, "share")
	solves := spansNamed(spans, "core.solve", lo, hi)
	r.timing("core.solve_ms", durations(solves, time.Millisecond), "ms")
	iters := 0
	for _, res := range run.results[1:] {
		iters += res.Iters
	}
	r.set("core.iters_mean", float64(iters)/n, "count")
	r.set("core.streamed_frac", float64(run.streamed)/n, "share")
	r.set("perfmodel.remap_frac", float64(run.remapped)/n, "share")
	r.set("perfmodel.csf_frac", mean(tr.csf), "share")
	r.setPhases(d.Breakdown())
	r.set("publish.snapshot_ms", median(durations(spansNamed(spans, "publish.snapshot", lo, hi), time.Millisecond)), "ms")

	workers := replayOptions(sp).Workers
	if !sp.ooc {
		mix, err := r.setKernels(f.cur, factorsOf(d), workers, mean(tr.csf))
		if err != nil {
			return err
		}
		r.set("mttkrp.kernel_gbps", mix, "GB/s")
	} else {
		blocks := spansNamed(spans, "ooc.block", lo, hi)
		r.timing("ooc.block_ms", durations(blocks, time.Millisecond), "ms")
		r.set("ooc.blocks_per_slice", float64(len(blocks))/n, "count")
		r.set("ooc.read_gbps", float64(tr.blockBytes.Load())/sumDur(blocks).Seconds()/1e9, "GB/s")
		rd, err := ooc.Open(tr.lastPath)
		if err != nil {
			return err
		}
		st, err := timeStream(rd, factorsOf(d), workers, kernelReps)
		rd.Close()
		if err != nil {
			return err
		}
		r.set("mttkrp.stream_gbps", st.gbps, "GB/s")
		r.set("mttkrp.flops_per_byte", st.flopsPB, "flop/B (computed)")
		r.set("mttkrp.kernel_gbps", st.gbps, "GB/s")
		// ADMM traffic from the paper's Table I blocked & fused model,
		// averaged over the modes, per ADMM iteration.
		words := 0.0
		for _, dim := range f.dims {
			words += float64(roofline.ADMMFusedTotal(int64(dim), replayRank).Words())
		}
		words /= float64(len(f.dims))
		update := d.Breakdown().Times[trace.Update]
		r.set("admm.iters", float64(tr.admm)/n, "count")
		r.set("admm.gbps", float64(tr.admm)*words*8/update.Seconds()/1e9, "GB/s (computed)")
	}
	return nil
}

// shardPipe is one daemon's layers wired by hand: window accumulator →
// ingest pipeline (with the spill WAL) → timed processor → decomposer
// → commit hook (snapshot) → checkpoint manager.
type shardPipe struct {
	rec  *recorder
	dec  *core.Decomposer
	acc  *sptensor.WindowAccumulator
	pipe *ingest.Pipeline
	mgr  *resilience.Manager
	snap atomic.Pointer[serve.FactorSnapshot]

	mu       sync.Mutex  // guards acc, admits, windows, spilled
	admits   []time.Time // admission times not yet popped by the solver
	windows  []*sptensor.Tensor
	spilled  []bool
	events   int
	failures int

	// consumer-side state (pipeline goroutine)
	cur, trace int
	start      time.Time
	visibleAt  []float64 // seconds since start, per window
	iters      []int
	csf        []float64
	last       *sptensor.Tensor
	committed  atomic.Int64
	// mttkrpBytes is the computed MTTKRP traffic of the solves: per
	// iteration, one MTTKRP per mode over the window's nonzeros.
	mttkrpBytes float64
}

// ProcessSliceContext implements ingest.Processor with spans for the
// queue wait and the solve.
func (p *shardPipe) ProcessSliceContext(ctx context.Context, x *sptensor.Tensor) (core.SliceResult, error) {
	p.mu.Lock()
	admitted := p.admits[0]
	p.admits = p.admits[1:]
	p.mu.Unlock()
	p.trace = p.dec.T() + 1
	p.rec.add("ingest.queue_wait", 0, p.trace, admitted, time.Now())
	p.cur = p.rec.begin("core.solve", 0, p.trace)
	res, err := p.dec.ProcessSliceContext(ctx, x)
	p.rec.end(p.cur)
	if err == nil {
		p.iters = append(p.iters, res.Iters)
		p.csf = append(p.csf, csfShare(p.dec.KernelSchedule(nil)))
		p.last = x
		b, _ := mttkrpCost(x.NNZ(), len(x.Dims), serveRank)
		p.mttkrpBytes += b * float64(len(x.Dims)*res.Iters)
	}
	return res, err
}

func newShardPipe(rec *recorder, sp *serveSpec, dir string, start time.Time) (*shardPipe, error) {
	p := &shardPipe{rec: rec, start: start}
	var err error
	if p.dec, err = core.NewDecomposer(serveDims, serveOptions(sp.workers)); err != nil {
		return nil, err
	}
	if p.mgr, err = resilience.NewManager(filepath.Join(dir, "ckpt"), checkpointN, 3); err != nil {
		return nil, err
	}
	p.acc = sptensor.NewWindowAccumulator(serveDims, sp.window)
	p.dec.SetCommitHook(func(res core.SliceResult) {
		sid := rec.begin("serve.snapshot", p.cur, p.trace)
		p.snap.Store(serve.TakeSnapshot(p.dec, res.Fit))
		rec.end(sid)
		p.visibleAt = append(p.visibleAt, time.Since(p.start).Seconds())
		p.committed.Store(int64(p.dec.T()))
	})
	p.pipe, err = ingest.New(p, ingest.Config{
		QueueCap: sp.queue,
		Policy:   ingest.Spill,
		Spill:    &ingest.SpillConfig{Dir: filepath.Join(dir, "spill")},
		OnResult: func(core.SliceResult) {
			if t := p.dec.T(); t%checkpointN == 0 {
				_ = p.pipe.SpillMark(t) // a failed offset mark only weakens crash replay
				cid := rec.begin("resilience.checkpoint", 0, t)
				if _, err := p.mgr.Write(t, p.dec); err != nil {
					p.mu.Lock()
					p.failures++
					p.mu.Unlock()
				}
				rec.end(cid)
			}
		},
	})
	return p, err
}

// ingestBody runs one body through parse → window → admit, as the
// daemon's POST handler does.
func (p *shardPipe) ingestBody(body []byte, parent, tr int) (events, windows int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pid := p.rec.begin("serve.parse", parent, tr)
	evs, err := parseBody(body)
	p.rec.end(pid)
	if err != nil {
		return 0, 0, err
	}
	wid := p.rec.begin("sptensor.window", parent, tr)
	defer p.rec.end(wid)
	for _, ev := range evs {
		x := p.acc.Add(ev)
		if x == nil {
			continue
		}
		aid := p.rec.begin("ingest.admit", wid, tr)
		p.admits = append(p.admits, time.Now())
		before := p.pipe.Stats().Spilled
		aerr := p.pipe.Admit(x)
		p.rec.end(aid)
		if aerr != nil {
			p.failures++
			continue
		}
		p.windows = append(p.windows, x)
		p.spilled = append(p.spilled, p.pipe.Stats().Spilled > before)
		windows++
	}
	p.events += len(evs)
	return len(evs), windows, nil
}

// parseBody parses a POST body with serve.ParseEvent, the daemon's and
// the gateway's trust boundary.
func parseBody(body []byte) ([]sptensor.Event, error) {
	var evs []sptensor.Event
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		ev, err := serve.ParseEvent(line, serveDims)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// ServeHTTP accepts forwarded batches at /span/PARENT/TRACE/v1/ingest,
// so spans recorded here hang under the forwarding call's span.
func (p *shardPipe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	var parent, tr int
	if len(parts) >= 3 {
		parent, _ = strconv.Atoi(parts[1])
		tr, _ = strconv.Atoi(parts[2])
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n, wins, err := p.ingestBody(buf.Bytes(), parent, tr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"accepted":%d,"rejected":0,"windows_emitted":%d,"windows_shed":0}`, n, wins)
}

// passResult is one in-process serving pass.
type passResult struct {
	shards  []*shardPipe
	visible []float64 // ms per window, from the completing POST's scheduled send
	lateMax float64
	lo, hi  time.Duration
}

// servePass drives the inputs through hand-wired shard pipelines at the
// workload's schedule. With shards, each POST is parsed, partitioned
// with cluster.Router and forwarded with cluster.ShardClient to an
// in-process HTTP endpoint per shard; a reader merges the shards'
// mode-0 rows with MergeMode0 and BlockNorm2 twice a second.
func servePass(rec *recorder, sp *serveSpec, in *serveInputs, dir string) (*passResult, error) {
	n := max(sp.shards, 1)
	start := time.Now()
	res := &passResult{lo: time.Since(rec.startOr(start))}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < n; i++ {
		p, err := newShardPipe(rec, sp, filepath.Join(dir, fmt.Sprintf("shard%d", i)), start)
		if err != nil {
			return nil, err
		}
		p.pipe.Start(ctx)
		res.shards = append(res.shards, p)
	}
	router, err := cluster.NewRouter(serveDims, n)
	if err != nil {
		return nil, err
	}
	var clients []*cluster.ShardClient
	if sp.shards > 0 {
		for _, p := range res.shards {
			srv := httptest.NewServer(p)
			defer srv.Close()
			clients = append(clients, &cluster.ShardClient{Base: srv.URL, HTTP: srv.Client()})
		}
	}
	stopReader := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		if sp.shards == 0 {
			return
		}
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopReader:
				return
			case <-tick.C:
				mergeRead(rec, router, res.shards)
			}
		}
	}()

	since := func() float64 { return time.Since(start).Seconds() }
	prevEnd := 0.0
	for i, body := range in.bodies {
		if d := time.Duration((in.at[i] - since()) * float64(time.Second)); d > 0 {
			time.Sleep(d)
		}
		res.lateMax = math.Max(res.lateMax, 1000*(since()-math.Max(in.at[i], prevEnd)))
		tr := i + 1
		if sp.shards == 0 {
			if _, _, err := res.shards[0].ingestBody(body, 0, tr); err != nil {
				return nil, err
			}
			prevEnd = since()
			continue
		}
		if err := forward(ctx, rec, router, clients, body, tr); err != nil {
			return nil, err
		}
		prevEnd = since()
	}
	close(stopReader)
	<-readerDone
	deadline := time.Now().Add(drainWait)
	for s, p := range res.shards {
		for p.committed.Load() < int64(in.perSh[s]) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		p.pipe.Drain(ctx)
	}
	res.hi = time.Since(rec.startOr(start))
	for _, w := range in.ends {
		p := res.shards[w.shard]
		if w.k > len(p.visibleAt) {
			return nil, fmt.Errorf("shard %d window %d never committed in the traced pass", w.shard, w.k)
		}
		res.visible = append(res.visible, 1000*(p.visibleAt[w.k-1]-in.sentAt(w.event)))
	}
	return res, nil
}

// startOr is the recorder's time origin, or t for a nil recorder.
func (r *recorder) startOr(t time.Time) time.Time {
	if r == nil {
		return t
	}
	return r.start
}

// forward is the gateway's ingest path: parse, partition, and one
// PostIngest per shard with events.
func forward(ctx context.Context, rec *recorder, router *cluster.Router, clients []*cluster.ShardClient, body []byte, tr int) error {
	pid := rec.begin("cluster.parse", 0, tr)
	evs, err := parseBody(body)
	rec.end(pid)
	if err != nil {
		return err
	}
	cid := rec.begin("cluster.partition", 0, tr)
	batches, err := router.Partition(evs)
	rec.end(cid)
	if err != nil {
		return err
	}
	for s, b := range batches {
		if len(b) == 0 {
			continue
		}
		fid := rec.begin("cluster.forward", 0, tr)
		c := &cluster.ShardClient{Base: fmt.Sprintf("%s/span/%d/%d", clients[s].Base, fid, tr), HTTP: clients[s].HTTP}
		out, err := c.PostIngest(ctx, renderBody(b), false)
		rec.end(fid)
		if err != nil {
			return err
		}
		if out.Status != http.StatusOK {
			return fmt.Errorf("shard %d answered %d: %s", s, out.Status, out.ErrorMsg)
		}
	}
	return nil
}

// mergeRead is the gateway's merged mode-0 read over the shards'
// published snapshots.
func mergeRead(rec *recorder, router *cluster.Router, shards []*shardPipe) {
	per := make([][][]float64, len(shards))
	all := make([][][][]float64, len(shards))
	var s []float64
	for i, p := range shards {
		snap := p.snap.Load()
		if snap == nil {
			return
		}
		all[i] = make([][][]float64, len(snap.Factors))
		for m, f := range snap.Factors {
			rows := make([][]float64, f.Rows)
			for r := range rows {
				rows[r] = f.Row(r)
			}
			all[i][m] = rows
		}
		per[i] = all[i][0]
		s = snap.S
	}
	id := rec.begin("cluster.merge", 0, 0)
	cluster.MergeMode0(router, per, serveRank)
	for i := range shards {
		lo, hi := router.Block(i)
		cluster.BlockNorm2(all[i], s, lo, hi)
	}
	rec.end(id)
}

// handlerPass times the real daemon handler: serve.Server's
// Handler().ServeHTTP on every POST body and on the reader's GETs,
// with the server's own pipeline running.
func handlerPass(rec *recorder, sp *serveSpec, in *serveInputs, dir string) error {
	srv, err := serve.New(serve.Config{
		Dims: serveDims, Options: serveOptions(0), WindowEvents: sp.window, QueueCap: sp.queue,
		SpillDir: filepath.Join(dir, "spill"), CheckpointDir: filepath.Join(dir, "ckpt"), CheckpointEvery: checkpointN,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx, ln) }()
	h := srv.Handler()
	start := time.Now()
	since := func() float64 { return time.Since(start).Seconds() }
	end := in.at[len(in.at)-1]
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		for j := 0; float64(j)/sp.readRate < end; j++ {
			if d := time.Duration((float64(j)/sp.readRate - since()) * float64(time.Second)); d > 0 {
				time.Sleep(d)
			}
			url := fmt.Sprintf("/v1/reconstruct?coord=%d,%d,%d", 1+j%serveDims[0], 1+(j*7919)%serveDims[1], 1+(j*104729)%serveDims[2])
			if sp.factorsEvery > 0 && j%sp.factorsEvery == 0 {
				url = "/v1/factors?mode=0"
			}
			id := rec.begin("serve.read", 0, 0)
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, url, nil))
			rec.end(id)
		}
	}()
	for i, body := range in.bodies {
		if d := time.Duration((in.at[i] - since()) * float64(time.Second)); d > 0 {
			time.Sleep(d)
		}
		w := httptest.NewRecorder()
		id := rec.begin("serve.handler", 0, i+1)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		rec.end(id)
		if w.Code != http.StatusOK {
			cancel()
			<-runErr
			return fmt.Errorf("handler answered %d", w.Code)
		}
	}
	<-readsDone
	cancel()
	return <-runErr
}

// walPass encodes every window of the traced pass as the spill record
// (sptensor.WriteBinary / ReadBinary), and appends, syncs and replays
// the windows the pipeline spilled through a fresh wal.Log.
func walPass(rec *recorder, shards []*shardPipe, dir string) (walBytes int64, err error) {
	log, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	appended := 0
	for _, p := range shards {
		for k, x := range p.windows {
			cid := rec.begin("sptensor.codec", 0, k+1)
			var buf bytes.Buffer
			err := sptensor.WriteBinary(&buf, x)
			if err == nil {
				_, err = sptensor.ReadBinary(bytes.NewReader(buf.Bytes()))
			}
			rec.end(cid)
			if err != nil {
				return 0, err
			}
			if !p.spilled[k] {
				continue
			}
			aid := rec.begin("wal.append", 0, k+1)
			_, err = log.Append(buf.Bytes())
			rec.end(aid)
			if err != nil {
				return 0, err
			}
			sid := rec.begin("wal.sync", 0, k+1)
			err = log.Sync()
			rec.end(sid)
			if err != nil {
				return 0, err
			}
			walBytes += int64(buf.Len())
			appended++
		}
	}
	for i := 0; i < appended; i++ {
		rid := rec.begin("wal.replay", 0, i+1)
		_, _, ok, err := log.Next()
		rec.end(rid)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("wal replay stopped after %d of %d records", i, appended)
		}
	}
	return walBytes, nil
}

func tracedServe(r *result, rec *recorder, sp *serveSpec, seed uint64, seconds float64, work string) error {
	passes := 2.0 // untraced + traced
	if sp.shards == 0 {
		passes = 3 // + the daemon handler pass
	}
	in, err := makeServeInputs(sp, seed, seconds/passes)
	if err != nil {
		return err
	}
	base, err := servePass(nil, sp, in, filepath.Join(work, "plain"))
	if err != nil {
		return err
	}
	tp, err := servePass(rec, sp, in, filepath.Join(work, "traced"))
	if err != nil {
		return err
	}
	spans := rec.snapshot()
	lo, hi := tp.lo, tp.hi
	r.set("trace.uncovered_frac", uncoveredFrac(spans, lo, hi), "share")
	r.set("trace.overhead_frac", median(tp.visible)/median(base.visible)-1, "share")
	r.timing("visible_ms_inprocess", tp.visible, "ms")
	r.set("gen.late_ms_max", tp.lateMax, "ms")
	r.attempted = len(in.bodies) + len(in.ends)

	solves := spansNamed(spans, "core.solve", lo, hi)
	r.timing("core.solve_ms", durations(solves, time.Millisecond), "ms")
	var bd trace.Breakdown
	var iters, csf []float64
	var spilled, queueHigh, retries int64
	events := 0
	mttkrpBytes := 0.0
	for _, p := range tp.shards {
		bd.Merge(p.dec.Breakdown())
		mttkrpBytes += p.mttkrpBytes
		for _, it := range p.iters {
			iters = append(iters, float64(it))
		}
		csf = append(csf, p.csf...)
		st := p.pipe.Stats()
		spilled += st.Spilled
		queueHigh = max(queueHigh, st.QueueHighWater)
		retries += int64(p.dec.ResilienceStats().SliceRetries)
		events += p.events
		r.failed += p.failures
	}
	r.setPhases(&bd)
	r.set("core.iters_mean", mean(iters), "count")
	r.set("perfmodel.csf_frac", mean(csf), "share")
	r.set("ingest.spilled", float64(spilled), "count")
	r.set("ingest.queue_high", float64(queueHigh), "count")
	r.set("resilience.retries", float64(retries), "count")
	r.set("publish.snapshot_ms", median(durations(spansNamed(spans, "serve.snapshot", lo, hi), time.Millisecond)), "ms")
	r.timing("serve.snapshot_ms", durations(spansNamed(spans, "serve.snapshot", lo, hi), time.Millisecond), "ms")
	r.timing("ingest.admit_us", durations(spansNamed(spans, "ingest.admit", lo, hi), time.Microsecond), "us")
	r.timing("ingest.queue_wait_ms", durations(spansNamed(spans, "ingest.queue_wait", lo, hi), time.Millisecond), "ms")
	r.timing("resilience.checkpoint_ms", durations(spansNamed(spans, "resilience.checkpoint", lo, hi), time.Millisecond), "ms")
	self := selfTimes(spans)
	selfSum := func(name string) time.Duration {
		var t time.Duration
		for _, s := range spansNamed(spans, name, lo, hi) {
			t += self[s.ID]
		}
		return t
	}
	r.set("serve.parse_ns_per_event", float64(selfSum("serve.parse"))/float64(events), "ns")
	r.set("sptensor.window_ns_per_event", float64(selfSum("sptensor.window"))/float64(events), "ns")
	if sp.shards > 0 {
		r.timing("cluster.partition_us", durations(spansNamed(spans, "cluster.partition", lo, hi), time.Microsecond), "us")
		r.timing("cluster.forward_ms", durations(spansNamed(spans, "cluster.forward", lo, hi), time.Millisecond), "ms")
		r.timing("cluster.merge_ms", durations(spansNamed(spans, "cluster.merge", lo, hi), time.Millisecond), "ms")
		perShard := make([]float64, len(tp.shards))
		for i, p := range tp.shards {
			perShard[i] = float64(p.events)
		}
		r.set("cluster.shard_skew", maxOf(perShard)/mean(perShard), "ratio")
	}
	// spCP-stream runs its kernels over the window remapped to the rows
	// it touches, with only those rows gathered; timed alone on the raw
	// window with full factors they would see other caches. The kernel
	// figure is therefore the computed traffic over the MTTKRP phase
	// time of the solves themselves; plan and CSF timed alone are
	// printed as a full-factor comparison.
	r.set("mttkrp.kernel_gbps", mttkrpBytes/bd.Times[trace.MTTKRP].Seconds()/1e9, "GB/s")
	hot := tp.shards[0]
	if _, err := r.setKernels(hot.last, factorsOf(hot.dec), sp.workers, mean(hot.csf)); err != nil {
		return err
	}

	if sp.shards == 0 {
		if err := handlerPass(rec, sp, in, filepath.Join(work, "handler")); err != nil {
			return err
		}
	}
	walBytes, err := walPass(rec, tp.shards, filepath.Join(work, "wal"))
	if err != nil {
		return err
	}
	spans = rec.snapshot()
	end := time.Since(rec.start)
	r.timing("serve.handler_ms", durations(spansNamed(spans, "serve.handler", hi, end), time.Millisecond), "ms")
	r.timing("serve.read_ms", durations(spansNamed(spans, "serve.read", hi, end), time.Millisecond), "ms")
	r.timing("sptensor.codec_ms", durations(spansNamed(spans, "sptensor.codec", hi, end), time.Millisecond), "ms")
	r.timing("wal.append_us", durations(spansNamed(spans, "wal.append", hi, end), time.Microsecond), "us")
	r.timing("wal.sync_ms", durations(spansNamed(spans, "wal.sync", hi, end), time.Millisecond), "ms")
	r.timing("wal.replay_us", durations(spansNamed(spans, "wal.replay", hi, end), time.Microsecond), "us")
	r.set("wal.bytes", float64(walBytes), "bytes")
	if sp.burst > 0 {
		r.validity("ingest.spilled > 0", spilled > 0)
	} else {
		r.validity("ingest.spilled == 0", spilled == 0)
	}
	r.validity(fmt.Sprintf("gen.late_ms_max <= %g", lateLimitMs), tp.lateMax <= lateLimitMs)
	return nil
}
