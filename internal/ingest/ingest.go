// Package ingest turns raw performance-counter collections into SPIRE
// datasets without trusting the input: real Linux `perf stat -x, -I <ms>`
// interval CSV (424-event collections full of `<not counted>` rows,
// multiplex-scaling percentages and the occasional garbled line) and the
// simulator's JSON both pass through a tolerant parser that emits
// core.Samples plus structured per-line diagnostics, then through the
// core validation/quarantine layer. Nothing in this package panics on
// hostile input; in lenient mode every anomaly becomes a Diag and the
// surviving samples flow on, in strict mode the first severe anomaly
// aborts with an error naming the offending line.
package ingest

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"spire/internal/core"
	"spire/internal/pmu"
)

// Mode selects how anomalies are handled.
type Mode int

const (
	// Lenient records anomalies as diagnostics, quarantines what cannot
	// be used, and keeps going — the default for real-world data.
	Lenient Mode = iota
	// Strict aborts on the first severe anomaly (garbled line, duplicate
	// or out-of-order interval, missing fixed counters, quarantined
	// sample). `<not counted>` / `<not supported>` rows are normal perf
	// output even on healthy runs and never abort.
	Strict
)

// String names the mode.
func (m Mode) String() string {
	if m == Strict {
		return "strict"
	}
	return "lenient"
}

// DiagClass classifies one ingestion diagnostic.
type DiagClass uint8

const (
	// DiagGarbled: a line that could not be parsed (truncated, wrong
	// field count, unparsable numbers).
	DiagGarbled DiagClass = iota
	// DiagNotCounted: perf reported `<not counted>` — the event was never
	// scheduled onto a counter during the interval.
	DiagNotCounted
	// DiagNotSupported: perf reported `<not supported>` for the event.
	DiagNotSupported
	// DiagDuplicate: a second row for the same (interval, event) pair;
	// the first row wins.
	DiagDuplicate
	// DiagOutOfOrder: an interval timestamp went backwards; intervals are
	// re-sorted, so this is informational in lenient mode.
	DiagOutOfOrder
	// DiagMissingFixed: an interval lacked the cycles or instructions
	// row, so no sample could be formed from it.
	DiagMissingFixed
	// DiagLowScaling: the event ran for less than Options.MinRunPct of
	// the interval; its scaled value is too extrapolated to trust.
	DiagLowScaling
	// DiagQuarantined: the assembled sample was rejected by the core
	// validation layer (see core.Validate reasons).
	DiagQuarantined
	// DiagUnknownClass: a scheduler event row carried a class this build
	// does not know; the row is skipped and the class is named in
	// Stats.SkippedClasses. Never severe: newer collectors may emit
	// classes an older analyzer has not learned, and that must not
	// abort a strict ingestion.
	DiagUnknownClass

	numDiagClasses
)

// String names the class for summaries.
func (c DiagClass) String() string {
	switch c {
	case DiagGarbled:
		return "garbled"
	case DiagNotCounted:
		return "not-counted"
	case DiagNotSupported:
		return "not-supported"
	case DiagDuplicate:
		return "duplicate"
	case DiagOutOfOrder:
		return "out-of-order"
	case DiagMissingFixed:
		return "missing-fixed"
	case DiagLowScaling:
		return "low-scaling"
	case DiagQuarantined:
		return "quarantined"
	case DiagUnknownClass:
		return "unknown-class"
	}
	return fmt.Sprintf("diag-%d", uint8(c))
}

// Severe reports whether the class aborts a Strict ingestion.
func (c DiagClass) Severe() bool {
	switch c {
	case DiagNotCounted, DiagNotSupported, DiagLowScaling, DiagUnknownClass:
		return false
	}
	return true
}

// Diag is one structured diagnostic tied (where possible) to a source
// line.
type Diag struct {
	// Line is the 1-based source line, or 0 for dataset-level findings.
	Line int `json:"line,omitempty"`
	// Class classifies the anomaly.
	Class DiagClass `json:"-"`
	// ClassName is Class's stable string form.
	ClassName string `json:"class"`
	// Msg describes the specific finding.
	Msg string `json:"msg"`
	// Raw holds the offending input line, truncated for sanity.
	Raw string `json:"raw,omitempty"`
}

// Stats aggregates an ingestion run.
type Stats struct {
	// Lines counts physical input lines (CSV only).
	Lines int `json:"lines"`
	// DataLines counts lines that contributed a counter row.
	DataLines int `json:"dataLines"`
	// Intervals counts distinct collection intervals seen.
	Intervals int `json:"intervals"`
	// Samples counts samples emitted into the dataset (post-quarantine).
	Samples int `json:"samples"`
	// ByClass maps diagnostic class name to occurrence count (complete
	// even when the Diags list is capped).
	ByClass map[string]int `json:"byClass,omitempty"`
	// SchedEvents counts scheduler events emitted into the dataset.
	SchedEvents int `json:"schedEvents,omitempty"`
	// SkippedClasses names each event class that was skipped during
	// ingestion and how many rows it cost — so an operator can see
	// *which* classes this build dropped, not just that some were.
	SkippedClasses map[string]int `json:"skippedClasses,omitempty"`
}

// SevereDiags counts the recorded diagnostics whose class would have
// aborted a strict ingestion. A lenient run that finishes with a
// non-zero severe count produced a usable but degraded dataset — the CLI
// reports this as a partial success (exit code 3) instead of silently
// exiting 0.
func (s Stats) SevereDiags() int {
	n := 0
	for c := DiagClass(0); c < numDiagClasses; c++ {
		if c.Severe() {
			n += s.ByClass[c.String()]
		}
	}
	return n
}

// Result is a completed ingestion.
type Result struct {
	// Dataset holds the surviving samples, ready for core.Train or
	// engine.Estimate.
	Dataset core.Dataset
	// Validation is the core-layer quarantine report over the assembled
	// samples.
	Validation core.ValidationReport
	// Diags lists structured diagnostics, capped at Options.MaxDiags.
	Diags []Diag
	// Stats aggregates counts (never capped).
	Stats Stats
}

// Options configures ingestion.
type Options struct {
	// Mode selects lenient (default) or strict handling.
	Mode Mode
	// CyclesEvent and InstEvent name the fixed-counter rows supplying T
	// and W. Defaults: "cpu_clk_unhalted.thread" and "inst_retired.any";
	// the perf generic aliases ("cycles", "cpu-cycles", "instructions")
	// are always accepted too.
	CyclesEvent string
	InstEvent   string
	// MinRunPct quarantines rows whose counter ran for less than this
	// percentage of the interval (their multiplex-scaled values are
	// mostly extrapolation). Zero keeps every scaled row.
	MinRunPct float64
	// MaxDiags caps the retained diagnostics list; Stats.ByClass stays
	// complete. Zero selects the default of 256; negative retains none.
	MaxDiags int
	// Validate overrides the core validation options; nil uses defaults.
	Validate *core.ValidateOptions
}

func (o *Options) setDefaults() {
	if o.CyclesEvent == "" {
		o.CyclesEvent = "cpu_clk_unhalted.thread"
	}
	if o.InstEvent == "" {
		o.InstEvent = "inst_retired.any"
	}
	if o.MaxDiags == 0 {
		o.MaxDiags = 256
	}
}

// diag records one diagnostic, honoring the retention cap.
func (res *Result) diag(opts Options, d Diag) {
	d.ClassName = d.Class.String()
	if len(d.Raw) > 200 {
		d.Raw = d.Raw[:200] + "..."
	}
	if res.Stats.ByClass == nil {
		res.Stats.ByClass = make(map[string]int)
	}
	res.Stats.ByClass[d.ClassName]++
	if opts.MaxDiags > 0 && len(res.Diags) < opts.MaxDiags {
		res.Diags = append(res.Diags, d)
	}
}

// skipClass records one skipped row of a named event class.
func (s *Stats) skipClass(name string) {
	if s.SkippedClasses == nil {
		s.SkippedClasses = make(map[string]int)
	}
	s.SkippedClasses[name]++
}

// strictErr converts a severe diagnostic into the strict-mode error.
func strictErr(d Diag) error {
	if d.Line > 0 {
		return fmt.Errorf("ingest: line %d: %s: %s", d.Line, d.Class, d.Msg)
	}
	return fmt.Errorf("ingest: %s: %s", d.Class, d.Msg)
}

// Summary renders the warnings digest the CLI prints on stderr.
func (res *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ingested %d samples from %d intervals", res.Stats.Samples, res.Stats.Intervals)
	if res.Validation.Quarantined > 0 {
		fmt.Fprintf(&b, "; %s", res.Validation.Summary())
	}
	if len(res.Stats.ByClass) > 0 {
		fmt.Fprintf(&b, "; diagnostics:")
		for _, c := range diagClassOrder() {
			if n := res.Stats.ByClass[c.String()]; n > 0 {
				fmt.Fprintf(&b, " %s:%d", c, n)
			}
		}
	}
	return b.String()
}

func diagClassOrder() []DiagClass {
	out := make([]DiagClass, 0, numDiagClasses)
	for c := DiagClass(0); c < numDiagClasses; c++ {
		out = append(out, c)
	}
	return out
}

// File ingests path, sniffing the format (JSON vs perf-stat CSV) from the
// first non-blank byte.
func File(path string, opts Options) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, opts)
}

// Read ingests r, sniffing the format: input starting with '{' or '['
// (after blanks) is treated as simulator JSON, anything else as perf-stat
// interval CSV.
func Read(r io.Reader, opts Options) (*Result, error) {
	br := bufio.NewReader(r)
	for {
		b, err := br.Peek(1)
		if err != nil {
			// Empty input: an empty CSV, which ingests to zero samples
			// (lenient) or errors below (strict finds no intervals).
			return ReadCSV(br, opts)
		}
		switch b[0] {
		case ' ', '\t', '\r', '\n':
			if _, err := br.ReadByte(); err != nil {
				return ReadCSV(br, opts)
			}
			continue
		case '{', '[':
			return ReadJSON(br, opts)
		default:
			return ReadCSV(br, opts)
		}
	}
}

// screen is the validation step every ingest path shares: the core
// quarantine layer over the assembled samples, one diagnostic per
// quarantined sample (the count stays complete when the detail list is
// capped), then screenSched over the scheduler events. ReadCSV and
// ReadJSON screen their whole dataset once, Incremental each interval.
// Stats.Samples and Stats.SchedEvents grow by what survives. In strict
// mode any quarantined sample or malformed event aborts.
func (res *Result) screen(assembled core.Dataset, opts Options) (core.Dataset, core.ValidationReport, error) {
	vopts := core.ValidateOptions{}
	if opts.Validate != nil {
		vopts = *opts.Validate
	}
	rep := core.Validate(assembled, vopts)
	for _, q := range rep.Detail {
		res.diag(opts, Diag{
			Class: DiagQuarantined,
			Msg:   fmt.Sprintf("sample %d quarantined (%s): %s", q.Index, q.ReasonName, q.Sample),
		})
	}
	if extra := rep.Quarantined - len(rep.Detail); extra > 0 {
		if res.Stats.ByClass == nil {
			res.Stats.ByClass = make(map[string]int)
		}
		res.Stats.ByClass[DiagQuarantined.String()] += extra
	}
	if opts.Mode == Strict && rep.Quarantined > 0 {
		msg := rep.Summary()
		if len(rep.Detail) > 0 {
			q := rep.Detail[0]
			msg = fmt.Sprintf("sample %d (%s): %s", q.Index, q.ReasonName, q.Sample)
		}
		return core.Dataset{}, rep, strictErr(Diag{Class: DiagQuarantined, Msg: msg})
	}
	clean := rep.Clean
	res.Stats.Samples += clean.Len()
	sched, err := res.screenSched(assembled.Sched, opts)
	if err != nil {
		return clean, rep, err
	}
	clean.Sched = sched
	res.Stats.SchedEvents += len(sched)
	return clean, rep, nil
}

// screenSched validates scheduler events. Structurally broken events
// quarantine like broken samples (severe: aborts strict mode); unknown
// classes are skipped, diagnosed non-severely, and *named* in
// Stats.SkippedClasses so an operator can see which classes this build
// dropped — newer collectors may emit classes an older analyzer has not
// learned, and that must never be fatal.
func (res *Result) screenSched(events []core.SchedEvent, opts Options) ([]core.SchedEvent, error) {
	if len(events) == 0 {
		return nil, nil
	}
	kept := make([]core.SchedEvent, 0, len(events))
	for i, ev := range events {
		if !ev.Valid() {
			d := Diag{Class: DiagQuarantined,
				Msg: fmt.Sprintf("sched event %d malformed: %s", i, ev)}
			res.diag(opts, d)
			res.Stats.skipClass(classOrPlaceholder(ev.Class))
			if opts.Mode == Strict {
				return nil, strictErr(d)
			}
			continue
		}
		if !knownSchedClass(ev.Class) {
			res.diag(opts, Diag{Class: DiagUnknownClass,
				Msg: fmt.Sprintf("sched event %d has unknown class %q; skipped", i, ev.Class)})
			res.Stats.skipClass(ev.Class)
			continue
		}
		kept = append(kept, ev)
	}
	if len(kept) == 0 {
		return nil, nil
	}
	return kept, nil
}

// classOrPlaceholder names a class for the skip ledger, substituting a
// marker for empty strings so the map key is meaningful.
func classOrPlaceholder(class string) string {
	if class == "" {
		return "(empty)"
	}
	return class
}

// knownSchedClass reports whether this build understands the class.
func knownSchedClass(class string) bool {
	_, ok := pmu.LookupSchedClass(class)
	return ok
}
