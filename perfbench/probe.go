package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"spstream/internal/csf"
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/sptensor"
)

// llcBytes reads the last-level cache size, or assumes 32 MiB.
func llcBytes() int64 {
	for _, idx := range []string{"index3", "index2"} {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n > 0 {
			return n * mult
		}
	}
	return 32 << 20
}

// streamProbe measures the host's read bandwidth in GB/s: nproc
// goroutines sum disjoint parts of one array four times the size of
// the last-level cache; the best of three passes counts. It returns
// the bandwidth and the array size in bytes.
func streamProbe() (float64, int64) {
	size := 4 * llcBytes()
	a := make([]float64, size/8)
	for i := range a {
		a[i] = float64(i & 7)
	}
	workers := runtime.NumCPU()
	best := 0.0
	sums := make([]float64, workers)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		var wg sync.WaitGroup
		chunk := (len(a) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, len(a))
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
				i := lo
				for ; i+4 <= hi; i += 4 {
					s0 += a[i]
					s1 += a[i+1]
					s2 += a[i+2]
					s3 += a[i+3]
				}
				for ; i < hi; i++ {
					s0 += a[i]
				}
				sums[w] = s0 + s1 + s2 + s3
			}(w, lo, hi)
		}
		wg.Wait()
		if gbps := float64(size) / time.Since(start).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	a = nil
	debug.FreeOSMemory()
	return best, size
}

// mttkrpCost is the computed traffic and work of one MTTKRP over an
// nnz-nonzero, n-mode slice at rank k: every coordinate and value is
// read once, and every nonzero reads n−1 factor rows and updates one
// output row with no cache reuse. The bytes are computed from the
// model, not measured.
func mttkrpCost(nnz, n, k int) (bytes, flops float64) {
	bytes = float64(nnz) * (float64(4*n+8) + float64(n*k*8))
	flops = float64(nnz) * float64(n*k)
	return bytes, flops
}

// kernelTiming is one kernel timed alone over every mode of a slice.
type kernelTiming struct {
	gbps    float64 // computed bytes per second
	flopsPB float64 // computed flops per byte
}

// timeKernel runs call once per mode to warm up, then reps times per
// mode, and converts the mean call time to computed GB/s.
func timeKernel(nnz int, dims []int, k, reps int, call func(mode int) error) (kernelTiming, error) {
	for m := range dims {
		if err := call(m); err != nil {
			return kernelTiming{}, err
		}
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		for m := range dims {
			if err := call(m); err != nil {
				return kernelTiming{}, err
			}
		}
	}
	per := time.Since(start) / time.Duration(reps*len(dims))
	bytes, flops := mttkrpCost(nnz, len(dims), k)
	return kernelTiming{gbps: bytes / per.Seconds() / 1e9, flopsPB: flops / bytes}, nil
}

func outputs(dims []int, k int) []*dense.Matrix {
	out := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		out[m] = dense.NewMatrix(d, k)
	}
	return out
}

// timePlan times the per-slice compiled coordinate plan.
func timePlan(x *sptensor.Tensor, factors []*dense.Matrix, workers, reps int) (kernelTiming, error) {
	c := mttkrp.NewComputer(workers)
	plan := c.NewPlan(x)
	out := outputs(x.Dims, factors[0].Cols)
	return timeKernel(x.NNZ(), x.Dims, factors[0].Cols, reps, func(m int) error {
		c.PlanMTTKRP(out[m], plan, factors, m)
		return nil
	})
}

// timeCSF times the tiled CSF engine (trees built in the warm-up).
func timeCSF(x *sptensor.Tensor, factors []*dense.Matrix, workers, reps int) (kernelTiming, error) {
	e := csf.NewEngine(workers)
	e.Begin(x)
	out := outputs(x.Dims, factors[0].Cols)
	return timeKernel(x.NNZ(), x.Dims, factors[0].Cols, reps, func(m int) error {
		e.MTTKRP(out[m], factors, m)
		return nil
	})
}

// timeStream times the out-of-core streamed kernel over a block source.
func timeStream(src sptensor.BlockSource, factors []*dense.Matrix, workers, reps int) (kernelTiming, error) {
	sk := mttkrp.NewStreamKernel(mttkrp.NewComputer(workers))
	out := outputs(src.Dims(), factors[0].Cols)
	return timeKernel(src.NNZ(), src.Dims(), factors[0].Cols, reps, func(m int) error {
		return sk.MTTKRP(out[m], src, factors, m)
	})
}
