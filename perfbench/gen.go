package main

import (
	"strconv"

	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// Serving inputs: a Flickr-like event stream (paper Table II) of
// Zipf users × clustered images × Zipf tags. Images are drawn from a
// window that drifts once per serving window, so each window touches
// a small fresh fraction of the image mode, the regime spCP-stream is
// built for. Mode 0 (users) is Zipf, which gives the sharded workload
// real partition skew.
var serveDims = []int{2000, 20000, 3000}

const (
	serveRank      = 16
	serveMu        = 0.95 // spstreamd's default forgetting factor
	serveImageSpan = 1000 // fresh images per window
)

// servePlantedRank is the rank of the fixed low-rank model the event
// values come from: with structureless values spCP-stream stops
// converging for stretches of windows (20 iterations instead of 2).
const servePlantedRank = 4

// serveTrace is the seed of the serving event trace, which is part of
// the workload, not of the run: spCP-stream's per-window cost on a
// Flickr-like trace depends on the trace itself by 25–50% (rows touched
// once decay towards the subnormal range; see README.md), which would
// make every serving latency a property of the trace rather than of
// the code. The run's seed drives the arrival times and the reads.
const serveTrace = 1

// genEvents draws n events of the trace: coordinates from trace,
// values from the fixed planted model.
func genEvents(trace uint64, n, windowEvents int) []sptensor.Event {
	model := synth.NewRNG(0x5EED)
	factors := make([][]float64, len(serveDims))
	for m, d := range serveDims {
		factors[m] = make([]float64, d*servePlantedRank)
		for i := range factors[m] {
			factors[m][i] = model.Float64()
		}
	}
	r := synth.NewRNG(trace*0x9E3779B97F4A7C15 + 1)
	users := synth.NewZipf(serveDims[0], 0.7)
	images := synth.Clustered{N: serveDims[1], Window: serveImageSpan, Drift: serveImageSpan * 2 / 3, Revisit: 0.02}
	tags := synth.NewZipf(serveDims[2], 0.7)
	evs := make([]sptensor.Event, n)
	for e := range evs {
		t := e / windowEvents
		c := []int32{users.Sample(r, t), images.Sample(r, t), tags.Sample(r, t)}
		v := 0.0
		for k := 0; k < servePlantedRank; k++ {
			p := 1.0
			for m, f := range factors {
				p *= f[int(c[m])*servePlantedRank+k]
			}
			v += p
		}
		evs[e] = sptensor.Event{Coord: c, Value: v}
	}
	return evs
}

// renderBody writes events as the daemon's line format: 1-based
// coordinates and the value.
func renderBody(evs []sptensor.Event) []byte {
	b := make([]byte, 0, len(evs)*24)
	for _, ev := range evs {
		for _, c := range ev.Coord {
			b = strconv.AppendInt(b, int64(c)+1, 10)
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, ev.Value, 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}

// Replay inputs: slice generators shaped like paperbench's "skewed"
// and "cube" configs, with a planted low-rank model so the fit has
// structure to recover. The skewed shape is paperbench's with every
// mode and the nonzero count halved, which keeps its regime (long,
// sparsely touched modes the layout manager remaps) at about a second
// per slice on a 2-CPU host.
func skewedConfig(seed uint64, slices int) synth.Config {
	return synth.Config{
		Name: "skewed",
		Dists: []synth.IndexDist{
			synth.NewZipf(20000, 1.1),
			synth.Clustered{N: 30000, Window: 750, Drift: 450, Revisit: 0.2},
			synth.NewZipf(25000, 1.05),
		},
		T: slices, NNZPerSlice: 50000,
		Values: synth.ValuePlanted, PlantedRank: 8, NoiseStd: 0.05,
		Seed: seed,
	}
}

func cubeConfig(seed uint64, slices int) synth.Config {
	return synth.Config{
		Name:  "cube",
		Dists: []synth.IndexDist{synth.Uniform{N: 800}, synth.Uniform{N: 800}, synth.Uniform{N: 800}},
		T:     slices, NNZPerSlice: 200000,
		Values: synth.ValuePlanted, PlantedRank: 8, NoiseStd: 0.05,
		Seed: seed,
	}
}
