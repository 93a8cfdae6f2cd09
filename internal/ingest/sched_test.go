package ingest

import (
	"reflect"
	"strings"
	"testing"

	"spire/internal/core"
)

const schedCSV = `1.000000000,12345,,cpu_clk_unhalted.thread,1000,100.00
1.000000000,4000,,inst_retired.any,1000,100.00
1.000000000,77,,longest_lat_cache.miss,1000,100.00
1.000000000,sched.switch_in,100,0,1,,-1
1.000000000,sched.block_lock,250,0,1,queue,2
2.000000000,23456,,cpu_clk_unhalted.thread,1000,100.00
2.000000000,4100,,inst_retired.any,1000,100.00
2.000000000,sched.unblock_lock,1300,0,0,queue,2
`

func TestReadCSVSchedRows(t *testing.T) {
	res, err := ReadCSV(strings.NewReader(schedCSV), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Dataset.Sched); got != 3 {
		t.Fatalf("sched events = %d, want 3; diags %+v", got, res.Diags)
	}
	want := core.SchedEvent{Time: 250, Class: "sched.block_lock", Thread: 0, Hart: 1, Obj: "queue", Waker: 2, Window: 1}
	if res.Dataset.Sched[1] != want {
		t.Fatalf("event = %+v, want %+v", res.Dataset.Sched[1], want)
	}
	if res.Dataset.Sched[2].Window != 2 {
		t.Fatalf("second-interval event window = %d, want 2", res.Dataset.Sched[2].Window)
	}
	if res.Stats.SchedEvents != 3 {
		t.Fatalf("stats.SchedEvents = %d", res.Stats.SchedEvents)
	}
	if res.Dataset.Len() != 1 {
		t.Fatalf("samples = %d, want 1", res.Dataset.Len())
	}
}

func TestReadCSVUnknownSchedClassNamedInStats(t *testing.T) {
	// Regression: unknown classes must be *named* in Stats.SkippedClasses,
	// not just counted, and must not abort strict mode.
	input := schedCSV +
		"2.000000000,sched.softirq_entry,1500,3,0,,-1\n" +
		"2.000000000,sched.softirq_entry,1600,3,0,,-1\n" +
		"2.000000000,sched.numa_migrate,1700,4,0,,-1\n"
	for _, mode := range []Mode{Lenient, Strict} {
		res, err := ReadCSV(strings.NewReader(input), Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: unknown class aborted ingestion: %v", mode, err)
		}
		want := map[string]int{"sched.softirq_entry": 2, "sched.numa_migrate": 1}
		if !reflect.DeepEqual(res.Stats.SkippedClasses, want) {
			t.Fatalf("%v: SkippedClasses = %v, want %v", mode, res.Stats.SkippedClasses, want)
		}
		if res.Stats.ByClass[DiagUnknownClass.String()] != 3 {
			t.Fatalf("%v: unknown-class count = %d, want 3", mode, res.Stats.ByClass[DiagUnknownClass.String()])
		}
		if got := len(res.Dataset.Sched); got != 3 {
			t.Fatalf("%v: kept events = %d, want 3", mode, got)
		}
		// Non-severe: a lenient run with only unknown-class diags is not
		// "degraded".
		if res.Stats.SevereDiags() != 0 {
			t.Fatalf("%v: severe diags = %d, want 0", mode, res.Stats.SevereDiags())
		}
	}
}

func TestReadCSVGarbledSchedRow(t *testing.T) {
	input := "1.0,sched.switch_in,abc,0,0,,-1\n" + schedCSV
	res, err := ReadCSV(strings.NewReader(input), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ByClass[DiagGarbled.String()] != 1 {
		t.Fatalf("garbled = %d, want 1", res.Stats.ByClass[DiagGarbled.String()])
	}
	if _, err := ReadCSV(strings.NewReader(input), Options{Mode: Strict}); err == nil {
		t.Fatal("strict mode accepted garbled sched row")
	}
}

func TestReadCSVSchedOnlyInterval(t *testing.T) {
	// An interval carrying only scheduler events forms a window without
	// any missing-fixed diagnostic.
	input := "1.000000000,sched.switch_in,100,0,0,,-1\n" +
		"1.000000000,sched.switch_out,900,0,0,,-1\n"
	res, err := ReadCSV(strings.NewReader(input), Options{Mode: Strict})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataset.Sched) != 2 {
		t.Fatalf("events = %d, want 2", len(res.Dataset.Sched))
	}
	if res.Dataset.Sched[0].Window != 1 {
		t.Fatalf("window = %d, want 1", res.Dataset.Sched[0].Window)
	}
	if n := res.Stats.ByClass[DiagMissingFixed.String()]; n != 0 {
		t.Fatalf("missing-fixed diags = %d, want 0", n)
	}
}

// schedScreenCSV is one interval carrying a lock wait whose event times
// parse but are not finite: both must be screened out and named.
const schedScreenCSV = `1.0,sched.switch_in,100,0,1,,-1
1.0,sched.block_lock,NaN,0,1,queue,2
1.0,sched.unblock_lock,+Inf,0,1,queue,2
1.0,sched.switch_out,900,0,1,,-1
`

func TestIncrementalSchedMatchesBatch(t *testing.T) {
	// The streaming path must produce the same events with the same
	// window tags, the same counts and the same screening as ReadCSV, in
	// any chunking.
	for _, input := range []string{schedCSV, schedScreenCSV} {
		batch, err := ReadCSV(strings.NewReader(input), Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, batchStrictErr := ReadCSV(strings.NewReader(input), Options{Mode: Strict})
		for _, chunk := range []int{1, 7, 64, len(input)} {
			ivs, in, err := feedAll(t, input, chunk, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var got []core.SchedEvent
			for _, iv := range ivs {
				got = append(got, iv.Sched...)
			}
			if !reflect.DeepEqual(got, batch.Dataset.Sched) {
				t.Fatalf("chunk %d: stream sched %+v != batch %+v", chunk, got, batch.Dataset.Sched)
			}
			st := in.Stats()
			if st.SchedEvents != batch.Stats.SchedEvents {
				t.Fatalf("chunk %d: stream SchedEvents %d != batch %d", chunk, st.SchedEvents, batch.Stats.SchedEvents)
			}
			if !reflect.DeepEqual(st.ByClass, batch.Stats.ByClass) {
				t.Fatalf("chunk %d: stream ByClass %v != batch %v", chunk, st.ByClass, batch.Stats.ByClass)
			}
			if !reflect.DeepEqual(st.SkippedClasses, batch.Stats.SkippedClasses) {
				t.Fatalf("chunk %d: stream SkippedClasses %v != batch %v", chunk, st.SkippedClasses, batch.Stats.SkippedClasses)
			}
			_, _, strictErr := feedAll(t, input, chunk, Options{Mode: Strict})
			if (strictErr == nil) != (batchStrictErr == nil) {
				t.Fatalf("chunk %d: strict stream error %v, batch error %v", chunk, strictErr, batchStrictErr)
			}
		}
	}
}

func TestIncrementalSkippedClassesSnapshotCopied(t *testing.T) {
	in := NewIncremental(Options{})
	if _, err := in.Feed([]byte("1.0,sched.bogus_class,5,0,0,,-1\n")); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	st.SkippedClasses["sched.bogus_class"] = 99
	if in.Stats().SkippedClasses["sched.bogus_class"] != 1 {
		t.Fatal("Stats snapshot aliases the live SkippedClasses map")
	}
}

func TestReadJSONSchedRoundTrip(t *testing.T) {
	// JSON datasets carry sched events through validation; unknown
	// classes are screened and named there too.
	var d core.Dataset
	d.Add(core.Sample{Metric: "longest_lat_cache.miss", T: 100, W: 50, M: 3, Window: 1})
	d.AddSched(
		core.SchedEvent{Time: 10, Class: "sched.switch_in", Thread: 0, Waker: -1, Window: 1},
		core.SchedEvent{Time: 20, Class: "sched.alien", Thread: 1, Waker: -1, Window: 1},
	)
	var sb strings.Builder
	if err := core.WriteDataset(&sb, d); err != nil {
		t.Fatal(err)
	}
	res, err := Read(strings.NewReader(sb.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataset.Sched) != 1 || res.Dataset.Sched[0].Class != "sched.switch_in" {
		t.Fatalf("sched = %+v", res.Dataset.Sched)
	}
	if res.Stats.SkippedClasses["sched.alien"] != 1 {
		t.Fatalf("SkippedClasses = %v", res.Stats.SkippedClasses)
	}
}

func TestReadJSONMalformedSchedStrict(t *testing.T) {
	var d core.Dataset
	d.Add(core.Sample{Metric: "x", T: 100, W: 50, M: 3})
	d.AddSched(core.SchedEvent{Time: -5, Class: "sched.switch_in", Thread: 0, Waker: -1})
	var sb strings.Builder
	if err := core.WriteDataset(&sb, d); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(strings.NewReader(sb.String()), Options{Mode: Strict}); err == nil {
		t.Fatal("strict mode accepted malformed sched event")
	}
	res, err := Read(strings.NewReader(sb.String()), Options{Mode: Lenient})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataset.Sched) != 0 {
		t.Fatalf("malformed event kept: %+v", res.Dataset.Sched)
	}
}
