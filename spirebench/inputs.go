package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"spire/internal/core"
	"spire/internal/perfstat"
	"spire/internal/pmu"
	"spire/internal/serve"
	"spire/internal/sim"
	"spire/internal/uarch"
	"spire/internal/wire"
	"spire/internal/workloads"
)

// Simulation settings shared by every workload. The interval is long
// enough (20 multiplex rotations over 17 counter groups) that every
// complete interval carries a sample of every modeled event. The
// simulator's own seed is fixed so that every benchmark seed sees the
// same workload shapes (sample counts, hence work per request); the
// benchmark seed jitters the counter values and picks every order,
// encoding and mix.
const (
	simSeed           = 42
	simScale          = 0.12
	simIntervalCycles = 50_000
	simMaxCycles      = 1_200_000
	simPerturbLines   = 32
)

// suiteRun is one simulated suite workload.
type suiteRun struct {
	name    string
	testing bool
	data    core.Dataset
}

// inputs is everything the generator derives from the seed. The program
// under test only ever sees request bodies and CSV built from it.
type inputs struct {
	seed  int64
	runs  []suiteRun          // workloads.All() order
	sched [][]core.SchedEvent // workloads.MTAll() order
}

// generate simulates the 27 suite workloads with perfstat.Collect, jitters
// their counter values by seed, and runs the multi-threaded roster for
// scheduler events. Simulation is the generator's work and is not part
// of setup_s.
func generate(seed int64) (*inputs, error) {
	specs := workloads.All()
	in := &inputs{seed: seed, runs: make([]suiteRun, len(specs))}
	errs := make([]error, len(specs))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec workloads.Spec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s, err := sim.New(uarch.Default(), spec.Build(simScale), simSeed)
			if err != nil {
				errs[i] = err
				return
			}
			data, _, err := perfstat.Collect(s, spec.Name, perfstat.Options{
				IntervalCycles: simIntervalCycles,
				MaxCycles:      simMaxCycles,
				Multiplex:      true,
				PerturbLines:   simPerturbLines,
			})
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
			data.Samples, _ = appendJittered(nil, data.Samples, 1, rng)
			in.runs[i] = suiteRun{name: spec.Name, testing: spec.Testing, data: data}
			errs[i] = err
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", specs[i].Name, err)
		}
	}
	for _, spec := range workloads.MTAll() {
		// MTSpec.Run converts the simulator's log with perfstat.ConvertSched.
		ev, _, err := spec.Run()
		if err != nil {
			return nil, err
		}
		in.sched = append(in.sched, ev)
	}
	return in, nil
}

// trainingData merges the training workloads' samples.
func (in *inputs) trainingData() core.Dataset {
	var d core.Dataset
	for _, r := range in.runs {
		if !r.testing {
			d.Merge(r.data)
		}
	}
	return d
}

// request is one pre-encoded /v1/estimate body in both encodings.
type request struct {
	samples []core.Sample
	sched   []core.SchedEvent
	json    []byte
	bin     []byte
	// jsonWin and binWin locate every sample's window number in the
	// bodies, so a per-request window offset can be patched in place.
	jsonWin []int
	binWin  []int
	baseWin []int
}

// Window numbers in route-cold bodies are 8 decimal digits wide, so an
// offset can be patched into the JSON text without moving any byte.
const (
	winBase   = 10_000_000
	winStride = 128 // > windows in any one request
	winLimit  = 99_999_999
)

func newRequest(samples []core.Sample, sched []core.SchedEvent) (*request, error) {
	raw, err := json.Marshal(serve.EstimateRequest{Samples: samples, Sched: sched})
	if err != nil {
		return nil, err
	}
	r := &request{
		samples: samples,
		sched:   sched,
		json:    raw,
		bin:     wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Samples: samples, Sched: sched}),
	}
	return r, nil
}

// locateWindows records where each sample's window number sits in both
// encodings. JSON windows must be 8-digit numbers; scheduler events carry
// no window (omitted), so every "window" key belongs to a sample.
func (r *request) locateWindows() error {
	key := []byte(`"window":`)
	for off := 0; ; {
		i := bytes.Index(r.json[off:], key)
		if i < 0 {
			break
		}
		p := off + i + len(key)
		r.jsonWin = append(r.jsonWin, p)
		off = p
	}
	if len(r.jsonWin) != len(r.samples) {
		return fmt.Errorf("found %d window fields for %d samples", len(r.jsonWin), len(r.samples))
	}
	schedLen := 0
	if len(r.sched) > 0 {
		withSched := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Samples: r.samples[:1], Sched: r.sched})
		plain := wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Samples: r.samples[:1]})
		schedLen = len(withSched) - len(plain)
	}
	const row = 4 + 8 + 8 + 8 + 8
	rows := len(r.bin) - schedLen - row*len(r.samples)
	for k, s := range r.samples {
		p := rows + k*row + row - 8
		if int(binary.LittleEndian.Uint64(r.bin[p:])) != s.Window {
			return fmt.Errorf("SPB1 row %d window not at offset %d", k, p)
		}
		r.binWin = append(r.binWin, p)
		r.baseWin = append(r.baseWin, s.Window)
	}
	return nil
}

// patched copies the chosen encoding into buf with every window shifted
// by off, which makes the workload key new while leaving the estimation
// unchanged (windows enter Eq. 1 only through equality).
func (r *request) patched(buf []byte, bin bool, off int) []byte {
	if bin {
		buf = append(buf[:0], r.bin...)
		for k, p := range r.binWin {
			binary.LittleEndian.PutUint64(buf[p:], uint64(r.baseWin[k]+off))
		}
		return buf
	}
	buf = append(buf[:0], r.json...)
	for k, p := range r.jsonWin {
		v := r.baseWin[k] + off
		for d := 7; d >= 0; d-- {
			buf[p+d] = byte('0' + v%10)
			v /= 10
		}
	}
	return buf
}

// hotRequests is serve-hot's rotation: one request per suite workload.
func (in *inputs) hotRequests() ([]*request, error) {
	out := make([]*request, len(in.runs))
	for i, r := range in.runs {
		req, err := newRequest(r.data.Samples, nil)
		if err != nil {
			return nil, err
		}
		out[i] = req
	}
	return out, nil
}

// coldPoolSize is how many distinct base workloads route-cold draws from;
// per-request window offsets make every sent workload new.
const coldPoolSize = 48

// coldRequests builds route-cold's base pool: each entry concatenates
// jittered suite runs up to a target size, the targets evenly spaced
// over 300-3000 samples in seeded order, and a seeded quarter of the
// entries carry a multi-threaded roster's scheduler events.
func (in *inputs) coldRequests() ([]*request, error) {
	rng := rand.New(rand.NewSource(in.seed*7919 + 17))
	out := make([]*request, coldPoolSize)
	withSched := rng.Perm(coldPoolSize)[:coldPoolSize/4]
	for k, slot := range rng.Perm(coldPoolSize) {
		target := 300 + slot*2700/(coldPoolSize-1)
		var samples []core.Sample
		win := winBase
		for len(samples) < target {
			run := in.runs[rng.Intn(len(in.runs))]
			samples, win = appendJittered(samples, run.data.Samples, win, rng)
		}
		var sched []core.SchedEvent
		for _, j := range withSched {
			if j == k {
				sched = in.sched[rng.Intn(len(in.sched))]
			}
		}
		req, err := newRequest(samples, sched)
		if err != nil {
			return nil, err
		}
		if err := req.locateWindows(); err != nil {
			return nil, err
		}
		out[k] = req
	}
	return out, nil
}

// appendJittered appends src with windows renumbered from win and with
// seeded multiplicative jitter: T and W per window (samples of one window
// share a period), M per sample.
func appendJittered(dst, src []core.Sample, win int, rng *rand.Rand) ([]core.Sample, int) {
	last, cur := -1, win-1
	var tj, wj float64
	for _, s := range src {
		if s.Window != last {
			last, cur = s.Window, cur+1
			tj, wj = jitter(rng), jitter(rng)
		}
		s.T = math.Round(s.T * tj)
		s.W = math.Round(s.W * wj)
		s.M = math.Round(s.M * jitter(rng))
		s.Window = cur
		dst = append(dst, s)
	}
	return dst, cur + 1
}

func jitter(rng *rand.Rand) float64 { return 1 + 0.02*(2*rng.Float64()-1) }

// streamSource enumerates the complete intervals stream-live renders,
// cycling through the suite runs in a seeded order.
type streamSource struct {
	intervals [][]core.Sample // each carries every modeled event once
}

func (in *inputs) streamSource() *streamSource {
	events := len(pmu.MetricEvents())
	rng := rand.New(rand.NewSource(in.seed*104729 + 3))
	src := &streamSource{}
	for _, i := range rng.Perm(len(in.runs)) {
		samples := in.runs[i].data.Samples
		for start := 0; start < len(samples); {
			end := start
			for end < len(samples) && samples[end].Window == samples[start].Window {
				end++
			}
			if end-start == events {
				src.intervals = append(src.intervals, samples[start:end])
			}
			start = end
		}
	}
	return src
}

// csv renders interval k (0-based) as `perf stat -x, -I` rows: the fixed
// cycles and instructions counters, then one row per metric event.
// Timestamps advance 10 ms per interval.
func (src *streamSource) csv(dst []byte, k int) []byte {
	samples := src.intervals[k%len(src.intervals)]
	ts := strconv.FormatFloat(float64(k+1)*0.01, 'f', 6, 64)
	row := func(v float64, event string) {
		dst = append(dst, ts...)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, v, 'f', -1, 64)
		dst = append(dst, ",,"...)
		dst = append(dst, event...)
		dst = append(dst, ",10000000,100.00,,\n"...)
	}
	row(samples[0].T, "cycles")
	row(samples[0].W, "instructions")
	for _, s := range samples {
		row(s.M, s.Metric)
	}
	return dst
}
