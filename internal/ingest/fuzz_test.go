package ingest

import (
	"reflect"
	"strings"
	"testing"

	"spire/internal/core"
)

// FuzzPerfStatCSV drives the tolerant parser with arbitrary input in both
// modes and asserts the robustness contract: no panic, internally
// consistent accounting, and only structurally valid samples in the
// surviving dataset. Seed corpus entries cover the real `perf stat -x, -I`
// row shapes (see also testdata/fuzz/FuzzPerfStatCSV).
func FuzzPerfStatCSV(f *testing.F) {
	seeds := []string{
		"1.000107616,29876,,longest_lat_cache.miss,4512678925,24.53,,\n",
		"1.000107616,3200000000,,cycles,1000000000,100.00,,\n1.000107616,4800000000,,instructions,1000000000,100.00,,\n1.000107616,29876,,idq.dsb_uops,250000000,25.00,,\n",
		"2.000362148,<not counted>,,idq.dsb_uops,0,0.00,,\n",
		"3.000500000,<not supported>,,topdown.slots,0,100.00,,\n",
		"# started on Wed Aug  5 14:02:11 2026\n",
		"1,000107616;3200000000;;cycles;1000000000;100,00;;\n",
		"1,000107616,123456789,,longest_lat_cache.miss,249812345,24,85,,\n",
		"14.000293847,19456\n",
		"perf: interrupted by signal, resuming\n",
		"1.000000001,3200000000,,cpu/inst_retired.any/,1000000000,100.00,,\n",
		"9.000000009,18446744073709551615,,cycle_activity.stalls_total,1,0.01,,\n",
		"-1.5,-300,,weird.event,-7,-3.00,,\n",
		"",
		"\x00\xff\xfe,,,,\n",
		"NAN,0,,0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, mode := range []Mode{Lenient, Strict} {
			res, err := ReadCSV(strings.NewReader(input), Options{Mode: mode})
			if res == nil {
				t.Fatal("nil result")
			}
			if mode == Strict && err != nil {
				continue // strict rejection is a legal outcome
			}
			if err != nil {
				// The only lenient-mode error is an input read failure
				// (e.g. a line beyond the scanner's 1 MiB cap).
				if strings.Contains(err.Error(), "reading input") {
					continue
				}
				t.Fatalf("lenient mode errored on parseable-or-skippable input: %v", err)
			}
			if res.Stats.Samples != res.Dataset.Len() {
				t.Fatalf("Stats.Samples %d != dataset len %d", res.Stats.Samples, res.Dataset.Len())
			}
			for _, s := range res.Dataset.Samples {
				if !s.Valid() {
					t.Fatalf("invalid sample survived ingestion: %s", s)
				}
				if s.Window <= 0 {
					t.Fatalf("sample without window tag: %s", s)
				}
			}
			total := 0
			for _, n := range res.Stats.ByClass {
				total += n
			}
			if len(res.Diags) > total {
				t.Fatalf("retained %d diags but counted %d", len(res.Diags), total)
			}
		}
	})
}

// incrementalRun feeds input through one Incremental using the chunk
// boundaries drawn from seed (0 = one whole chunk) and returns everything
// observable: intervals, retained diags, stats, and the final error.
func incrementalRun(input []byte, seed uint64, mode Mode) ([]Interval, []Diag, Stats, error) {
	in := NewIncremental(Options{Mode: mode})
	var ivs []Interval
	var diags []Diag
	rest := input
	for len(rest) > 0 {
		n := len(rest)
		if seed != 0 {
			// xorshift-derived chunk length in [1, 17].
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			n = int(seed%17) + 1
			if n > len(rest) {
				n = len(rest)
			}
		}
		out, err := in.Feed(rest[:n])
		ivs = append(ivs, out...)
		diags = append(diags, in.TakeDiags()...)
		if err != nil {
			return ivs, diags, in.Stats(), err
		}
		rest = rest[n:]
	}
	out, err := in.Close()
	ivs = append(ivs, out...)
	diags = append(diags, in.TakeDiags()...)
	return ivs, diags, in.Stats(), err
}

// FuzzStreamFeed is the chunk-boundary invariance gate for the streaming
// parser: feeding arbitrary bytes split at arbitrary boundaries —
// including mid-CSV-line — must produce exactly the intervals, the
// diagnostics, the stats and the error that feeding the same bytes as one
// whole chunk produces, in both modes.
func FuzzStreamFeed(f *testing.F) {
	seeds := []string{
		"1.000107616,3200000000,,cycles,1000000000,100.00,,\n1.000107616,4800000000,,instructions,1000000000,100.00,,\n1.000107616,29876,,idq.dsb_uops,250000000,25.00,,\n2.000362148,3200000000,,cycles,1000000000,100.00,,\n",
		"1.0,100,,cycles,1,100.00,,\n1.0,50,,instructions,1,100.00,,\n1.0,10,,llc.miss,1,25.00,,\n2.0,100,,cycles,1,100.00,,\n2.0,50,,instructions,1,100.00,,\n2.0,20,,llc.miss,1,25.00,,\n",
		"2.000362148,<not counted>,,idq.dsb_uops,0,0.00,,\n",
		"# comment\r\n1,000107616;3200000000;;cycles;1000000000;100,00;;\r\n",
		"garbage line without separators\n5.0,1,,cycles,1\n",
		"3.0,100,,cycles,1,100.00,,\n1.0,100,,cycles,1,100.00,,\n",
		"",
		"\x00\xff\xfe,,,,\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s), uint64(12345))
	}
	f.Fuzz(func(t *testing.T, input []byte, seed uint64) {
		for _, mode := range []Mode{Lenient, Strict} {
			wantIvs, wantDiags, wantStats, wantErr := incrementalRun(input, 0, mode)
			gotIvs, gotDiags, gotStats, gotErr := incrementalRun(input, seed|1, mode)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("mode %s: error mismatch: whole=%v chunked=%v", mode, wantErr, gotErr)
			}
			if wantErr != nil && wantErr.Error() != gotErr.Error() {
				t.Fatalf("mode %s: different errors: whole=%v chunked=%v", mode, wantErr, gotErr)
			}
			if !reflect.DeepEqual(wantIvs, gotIvs) {
				t.Fatalf("mode %s: intervals diverge across chunkings:\nwhole:   %+v\nchunked: %+v", mode, wantIvs, gotIvs)
			}
			if !reflect.DeepEqual(wantDiags, gotDiags) {
				t.Fatalf("mode %s: diagnostics diverge across chunkings:\nwhole:   %+v\nchunked: %+v", mode, wantDiags, gotDiags)
			}
			if !reflect.DeepEqual(wantStats, gotStats) {
				t.Fatalf("mode %s: stats diverge across chunkings:\nwhole:   %+v\nchunked: %+v", mode, wantStats, gotStats)
			}
			if mode == Lenient {
				for _, iv := range gotIvs {
					for _, s := range iv.Samples {
						if !s.Valid() {
							t.Fatalf("invalid sample survived streaming ingestion: %s", s)
						}
					}
				}
			}
		}
	})
}

// FuzzBatchStreamAgree holds ReadCSV and Incremental to one grammar: on
// the same input they must agree on every sample and its window, every
// scheduler event, and every Stats count and class, and strict mode must
// abort in both or in neither. Inputs where the grouping policies differ
// by design are skipped: a timestamp that goes backwards (ReadCSV
// re-sorts, streaming emits in arrival order), and a sample quarantined by
// ReadCSV, whose outlier screen runs over the whole dataset where
// streaming screens one interval. So is a line beyond ReadCSV's 1 MiB
// scanner, which aborts the batch read but is one diagnostic when
// streaming.
func FuzzBatchStreamAgree(f *testing.F) {
	seeds := []string{
		"NAN,0,,0\n",
		schedScreenCSV,
		schedCSV,
		genIntervalCSV(3, "llc.miss", "dsb.uops"),
		"1.0,100,,cycles,1,100.00,,\n1.0,50,,instructions,1,100.00,,\n1.0,10,,llc.miss,1,25.00,,\n1.0,99,,llc.miss,1,25.00,,\n2.0,100,,cycles,1,100.00,,\n",
		"1,000107616;3200000000;;cycles;1000000000;100,00;;\n1,000107616;4800000000;;instructions;1000000000;100,00;;\n",
		"garbage line without separators\n5.0,1,,cycles,1\n",
		"1.0,sched.switch_in,100,0,1,,-1\n1.0,sched.numa_migrate,5,0,0,,-1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		batch, err := ReadCSV(strings.NewReader(input), Options{})
		if err != nil {
			return
		}
		ivs, _, st, err := incrementalRun([]byte(input), 0, Lenient)
		if err != nil {
			t.Fatalf("lenient streaming errored: %v", err)
		}
		if st.ByClass[DiagOutOfOrder.String()] > 0 || batch.Validation.Quarantined > 0 {
			return
		}
		var samples []core.Sample
		var sched []core.SchedEvent
		for _, iv := range ivs {
			samples = append(samples, iv.Samples...)
			sched = append(sched, iv.Sched...)
		}
		if !reflect.DeepEqual(samples, batch.Dataset.Samples) {
			t.Fatalf("samples diverge:\nstream: %v\nbatch:  %v", samples, batch.Dataset.Samples)
		}
		if !reflect.DeepEqual(sched, batch.Dataset.Sched) {
			t.Fatalf("sched events diverge:\nstream: %v\nbatch:  %v", sched, batch.Dataset.Sched)
		}
		if !reflect.DeepEqual(st, batch.Stats) {
			t.Fatalf("stats diverge:\nstream: %+v\nbatch:  %+v", st, batch.Stats)
		}
		_, batchErr := ReadCSV(strings.NewReader(input), Options{Mode: Strict})
		_, _, _, streamErr := incrementalRun([]byte(input), 0, Strict)
		if (batchErr == nil) != (streamErr == nil) {
			t.Fatalf("strict mode disagrees: batch %v, stream %v", batchErr, streamErr)
		}
	})
}
