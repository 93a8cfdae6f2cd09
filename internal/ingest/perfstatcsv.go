package ingest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"spire/internal/core"
)

// The real `perf stat -x<sep> -I <ms>` interval row layout:
//
//	<time>,<value>,<unit>,<event>,<run-ns>,<pct>[,<opt-metric>,<opt-unit>]
//
// e.g.
//
//	1.000107616,29876,,longest_lat_cache.miss,4512678925,24.53,,
//	2.000362148,<not counted>,,idq.dsb_uops,0,0.00,,
//
// The value column carries the multiplex-scaled count (perf scales by
// enabled/running before printing); pct is the percentage of the interval
// the event actually sat on a counter. Locales with a decimal comma split
// the time and pct columns when the separator is also a comma — perf's
// own docs recommend -x\; there — so the parser accepts both separators
// and reassembles comma-split decimal fields.
const (
	fieldTime = iota
	fieldValue
	fieldUnit
	fieldEvent
	fieldRunNS
	fieldPct
	minFields = fieldRunNS // value rows without run/pct still carry 4 fields
)

// eventAliases maps perf's generic event names onto the registry-style
// names the rest of the repo uses.
var eventAliases = map[string]string{
	"cycles":                    "cpu_clk_unhalted.thread",
	"cpu-cycles":                "cpu_clk_unhalted.thread",
	"cpu_clk_unhalted.thread_p": "cpu_clk_unhalted.thread",
	"instructions":              "inst_retired.any",
	"inst_retired.any_p":        "inst_retired.any",
}

// pmuWrapRe matches pmu-qualified event syntax like "cpu/inst_retired.any/"
// or "cpu_core/cycles/".
var pmuWrapRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_-]*/(.+)/p{0,3}$`)

// CanonicalEvent normalizes a perf event spelling: trims blanks, unwraps
// "pmu/event/" qualification, strips ":ukhG"-style modifiers, lowercases,
// and applies the generic-name aliases.
func CanonicalEvent(name string) string {
	name = strings.TrimSpace(name)
	if m := pmuWrapRe.FindStringSubmatch(name); m != nil {
		name = m[1]
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[:i]
	}
	name = strings.ToLower(name)
	if canon, ok := eventAliases[name]; ok {
		return canon
	}
	return name
}

// row is one parsed counter line.
type row struct {
	line  int
	ts    float64
	event string
	value float64
	pct   float64 // percentage of interval the counter ran; 100 if absent
}

// Scheduler event rows share the interval CSV stream. Layout:
//
//	<time>,<class>,<cycle>,<thread>,<hart>,<obj>,<waker>
//
// e.g.
//
//	1.000107616,sched.block_lock,48123,3,1,queue,0
//
// The first column is the interval timestamp like every other row; the
// second is a "sched."-prefixed class name, which is what marks the row
// as a scheduler event rather than a counter (counter values are
// numeric or <not counted>). Unknown "sched.*" classes are skipped and
// named in Stats.SkippedClasses, never fatal.
const (
	schedFieldTime = iota
	schedFieldClass
	schedFieldCycle
	schedFieldThread
	schedFieldHart
	schedFieldObj
	schedFieldWaker
	schedNumFields
)

// schedPrefix marks scheduler event rows.
const schedPrefix = "sched."

// interval accumulates the rows sharing one timestamp.
type interval struct {
	ts    float64
	rows  []row
	sched []core.SchedEvent
	seen  map[string]bool // events already recorded (duplicate detection)
}

// csvParser is the perf-stat CSV grammar that ReadCSV and Incremental
// share: the row grammar (parseLine), interval bookkeeping (open, add),
// interval assembly (assemble) and, through Result.screen, validation.
// Only the grouping of rows into intervals belongs to the caller:
// ReadCSV groups by timestamp across the whole input and re-sorts,
// Incremental groups contiguous rows and emits them in arrival order.
type csvParser struct {
	opts     Options
	cyclesEv string
	instEv   string
	res      *Result
	lineNo   int
	window   int     // windows assembled so far
	lastTS   float64 // latest interval timestamp opened
	haveTS   bool
	err      error // strict-mode abort; sticky
}

func newCSVParser(opts Options) *csvParser {
	opts.setDefaults()
	return &csvParser{
		opts:     opts,
		cyclesEv: CanonicalEvent(opts.CyclesEvent),
		instEv:   CanonicalEvent(opts.InstEvent),
		res:      &Result{},
	}
}

// diag records one diagnostic and arms the strict-mode abort when it is
// severe.
func (p *csvParser) diag(d Diag) {
	p.res.diag(p.opts, d)
	if p.opts.Mode == Strict && d.Class.Severe() {
		p.err = strictErr(d)
	}
}

// lineKind is what parseLine made of one input line.
type lineKind uint8

const (
	lineNone    lineKind = iota // blank, comment, or diagnosed and dropped
	lineCounter                 // a counter row
	lineSched                   // a scheduler event row
)

// parseLine is the row grammar. It counts the line, skips blanks and
// comments, and parses a counter or scheduler row, recording every
// per-line diagnostic; a counter row that ran for less than MinRunPct of
// its interval is diagnosed and dropped. The row's timestamp is rw.ts for
// both kinds; a scheduler row's event is ev. overran marks a line cut
// short at maxLineBytes.
func (p *csvParser) parseLine(raw string, overran bool) (lineKind, row, core.SchedEvent) {
	p.lineNo++
	p.res.Stats.Lines++
	if overran {
		p.diag(Diag{Line: p.lineNo, Class: DiagGarbled, Raw: raw,
			Msg: fmt.Sprintf("line exceeds %d bytes; skipped", maxLineBytes)})
		return lineNone, row{}, core.SchedEvent{}
	}
	line := strings.TrimSpace(raw)
	if line == "" || strings.HasPrefix(line, "#") {
		return lineNone, row{}, core.SchedEvent{}
	}
	fields := splitFields(line)
	if isSchedRow(fields) {
		ts, ev, d := parseSchedFields(fields, line, p.lineNo)
		if d != nil {
			if d.Class == DiagUnknownClass {
				p.res.Stats.skipClass(classOrPlaceholder(ev.Class))
			}
			p.diag(*d)
			return lineNone, row{}, core.SchedEvent{}
		}
		p.res.Stats.DataLines++
		return lineSched, row{line: p.lineNo, ts: ts}, ev
	}
	rw, d := parseRowFields(fields, line, p.lineNo)
	if d != nil {
		p.diag(*d)
		return lineNone, row{}, core.SchedEvent{}
	}
	p.res.Stats.DataLines++
	if rw.pct < p.opts.MinRunPct {
		p.diag(Diag{Line: p.lineNo, Class: DiagLowScaling, Raw: raw,
			Msg: fmt.Sprintf("%s ran %.2f%% of the interval (< %.2f%%)", rw.event, rw.pct, p.opts.MinRunPct)})
		return lineNone, row{}, core.SchedEvent{}
	}
	return lineCounter, rw, core.SchedEvent{}
}

// open starts a new interval at ts. A timestamp earlier than one already
// opened is diagnosed as out of order; then says how the caller's
// grouping handles it.
func (p *csvParser) open(ts float64, raw, then string) *interval {
	if p.haveTS && ts < p.lastTS {
		p.diag(Diag{Line: p.lineNo, Class: DiagOutOfOrder, Raw: raw,
			Msg: fmt.Sprintf("interval %.9f arrived after %.9f; %s", ts, p.lastTS, then)})
	}
	if ts > p.lastTS {
		p.lastTS = ts
	}
	p.haveTS = true
	return &interval{ts: ts, seen: make(map[string]bool)}
}

// add puts one parsed row into its interval. A second counter row for
// the same event is diagnosed and dropped: the first row wins.
func (p *csvParser) add(iv *interval, kind lineKind, rw row, ev core.SchedEvent, raw string) {
	if kind == lineSched {
		iv.sched = append(iv.sched, ev)
		return
	}
	if iv.seen[rw.event] {
		p.diag(Diag{Line: p.lineNo, Class: DiagDuplicate, Raw: raw,
			Msg: fmt.Sprintf("duplicate row for event %s in interval %.9f; keeping the first", rw.event, rw.ts)})
		return
	}
	iv.seen[rw.event] = true
	iv.rows = append(iv.rows, rw)
}

// assemble turns one complete interval into samples and scheduler events
// appended to ds: T and W come from the interval's fixed-counter rows,
// and every other counter row becomes one sample. An interval becomes a
// window when it carries a full counter set or scheduler events; counter
// rows missing their fixed set are diagnosed and dropped. It reports
// whether the interval became a window, numbered p.window.
func (p *csvParser) assemble(iv *interval, ds *core.Dataset) bool {
	p.res.Stats.Intervals++
	var T, W float64
	haveT, haveW := false, false
	for _, rw := range iv.rows {
		switch rw.event {
		case p.cyclesEv:
			T, haveT = rw.value, true
		case p.instEv:
			W, haveW = rw.value, true
		}
	}
	haveFixed := haveT && haveW
	if !haveFixed && len(iv.rows) > 0 {
		missing := p.cyclesEv
		if haveT {
			missing = p.instEv
		}
		p.diag(Diag{Class: DiagMissingFixed, Line: iv.rows[0].line,
			Msg: fmt.Sprintf("interval %.9f has no %s row; dropping its %d rows", iv.ts, missing, len(iv.rows))})
		if p.err != nil {
			return false
		}
	}
	if !haveFixed && len(iv.sched) == 0 {
		return false
	}
	p.window++
	if haveFixed {
		for _, rw := range iv.rows {
			if rw.event == p.cyclesEv || rw.event == p.instEv {
				continue
			}
			ds.Add(core.Sample{Metric: rw.event, T: T, W: W, M: rw.value, Window: p.window})
		}
	}
	for i := range iv.sched {
		iv.sched[i].Window = p.window
	}
	ds.AddSched(iv.sched...)
	return true
}

// ReadCSV ingests `perf stat -x, -I` (or -x\;) interval output. Lenient
// mode records every anomaly as a Diag and presses on; strict mode aborts
// on the first severe one. The returned dataset uses T = cycles and
// W = instructions from each interval's fixed-counter rows, one sample per
// remaining event, with Window numbering the intervals in timestamp order.
func ReadCSV(r io.Reader, opts Options) (*Result, error) {
	p := newCSVParser(opts)
	intervals := make(map[float64]*interval)
	var order []float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		raw := sc.Text()
		kind, rw, ev := p.parseLine(raw, false)
		if kind != lineNone {
			iv := intervals[rw.ts]
			if iv == nil {
				iv = p.open(rw.ts, raw, "re-sorting")
				intervals[rw.ts] = iv
				order = append(order, rw.ts)
			}
			p.add(iv, kind, rw, ev, raw)
		}
		if p.err != nil {
			return p.res, p.err
		}
	}
	if err := sc.Err(); err != nil {
		return p.res, fmt.Errorf("ingest: reading input: %w", err)
	}

	sort.Float64s(order)
	var assembled core.Dataset
	for _, ts := range order {
		if p.assemble(intervals[ts], &assembled); p.err != nil {
			return p.res, p.err
		}
	}
	var err error
	p.res.Dataset, p.res.Validation, err = p.res.screen(assembled, p.opts)
	return p.res, err
}

// splitFields splits a data line on its separator (comma, or semicolon
// when present), trims blanks, and mends decimal-comma splits.
func splitFields(line string) []string {
	sep := byte(',')
	if strings.IndexByte(line, ';') >= 0 {
		sep = ';'
	}
	fields := strings.Split(line, string(sep))
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	if sep == ',' {
		fields = mendDecimalSplits(fields)
	}
	return fields
}

// isSchedRow reports whether split fields form a scheduler event row.
func isSchedRow(fields []string) bool {
	return len(fields) >= 2 && strings.HasPrefix(fields[schedFieldClass], schedPrefix)
}

// parseSchedFields parses a scheduler event row. The returned Diag, when
// non-nil, is the whole story (garbled row or unknown class); callers
// record unknown classes in Stats.SkippedClasses using ev.Class, which
// is filled even on the unknown-class Diag.
func parseSchedFields(fields []string, line string, lineNo int) (ts float64, ev core.SchedEvent, d *Diag) {
	if len(fields) != schedNumFields {
		return 0, ev, &Diag{Line: lineNo, Class: DiagGarbled, Raw: line,
			Msg: fmt.Sprintf("sched row has %d fields, want %d", len(fields), schedNumFields)}
	}
	ts, d = parseTS(fields[schedFieldTime], line, lineNo)
	if d != nil {
		return 0, ev, d
	}
	ev.Class = fields[schedFieldClass]
	cycle, err := parseNum(fields[schedFieldCycle])
	if err != nil || cycle < 0 {
		return ts, ev, &Diag{Line: lineNo, Class: DiagGarbled, Raw: line,
			Msg: fmt.Sprintf("bad sched event time %q", fields[schedFieldCycle])}
	}
	ev.Time = cycle
	thread, err := strconv.Atoi(fields[schedFieldThread])
	if err != nil || thread < 0 {
		return ts, ev, &Diag{Line: lineNo, Class: DiagGarbled, Raw: line,
			Msg: fmt.Sprintf("bad sched thread id %q", fields[schedFieldThread])}
	}
	ev.Thread = thread
	hart, err := strconv.Atoi(fields[schedFieldHart])
	if err != nil || hart < 0 {
		return ts, ev, &Diag{Line: lineNo, Class: DiagGarbled, Raw: line,
			Msg: fmt.Sprintf("bad sched hart %q", fields[schedFieldHart])}
	}
	ev.Hart = hart
	ev.Obj = fields[schedFieldObj]
	waker, err := strconv.Atoi(fields[schedFieldWaker])
	if err != nil || waker < -1 {
		return ts, ev, &Diag{Line: lineNo, Class: DiagGarbled, Raw: line,
			Msg: fmt.Sprintf("bad sched waker %q", fields[schedFieldWaker])}
	}
	ev.Waker = waker
	if !knownSchedClass(ev.Class) {
		return ts, ev, &Diag{Line: lineNo, Class: DiagUnknownClass, Raw: line,
			Msg: fmt.Sprintf("unknown sched event class %q; skipped", ev.Class)}
	}
	return ts, ev, nil
}

// parseTS parses a row's interval timestamp. A timestamp that is not a
// finite number garbles its row: it cannot name an interval.
func parseTS(field, line string, lineNo int) (float64, *Diag) {
	ts, err := parseNum(field)
	if err != nil || math.IsNaN(ts) || math.IsInf(ts, 0) {
		return 0, &Diag{Line: lineNo, Class: DiagGarbled, Raw: line,
			Msg: fmt.Sprintf("bad interval timestamp %q", field)}
	}
	return ts, nil
}

// parseRowFields parses one split counter line into a row, or classifies
// it with a Diag; exactly one of the returns is meaningful.
func parseRowFields(fields []string, line string, lineNo int) (row, *Diag) {
	if len(fields) < minFields {
		return row{}, &Diag{Line: lineNo, Class: DiagGarbled, Raw: line,
			Msg: fmt.Sprintf("%d fields, want >= %d (truncated line?)", len(fields), minFields)}
	}
	ts, d := parseTS(fields[fieldTime], line, lineNo)
	if d != nil {
		return row{}, d
	}
	event := CanonicalEvent(fields[fieldEvent])
	if event == "" {
		return row{}, &Diag{Line: lineNo, Class: DiagGarbled, Raw: line,
			Msg: "empty event name"}
	}
	switch strings.ToLower(fields[fieldValue]) {
	case "<not counted>":
		return row{}, &Diag{Line: lineNo, Class: DiagNotCounted, Raw: line,
			Msg: fmt.Sprintf("%s not counted in interval %s", event, fields[fieldTime])}
	case "<not supported>":
		return row{}, &Diag{Line: lineNo, Class: DiagNotSupported, Raw: line,
			Msg: fmt.Sprintf("%s not supported by this PMU", event)}
	}
	value, err := parseNum(fields[fieldValue])
	if err != nil {
		return row{}, &Diag{Line: lineNo, Class: DiagGarbled, Raw: line,
			Msg: fmt.Sprintf("bad counter value %q for %s", fields[fieldValue], event)}
	}
	pct := 100.0
	if len(fields) > fieldPct && fields[fieldPct] != "" {
		if p, err := parseNum(fields[fieldPct]); err == nil {
			pct = p
		}
	}
	return row{line: lineNo, ts: ts, event: event, value: value, pct: pct}, nil
}

// mendDecimalSplits repairs comma-separated lines produced under a
// decimal-comma locale, where perf prints "1,000107616" for the timestamp
// and "99,75" for the running percentage and the commas collide with the
// field separator. A numeric field followed by an all-digit fragment that
// cannot start a field of its own (perf prints no leading zeros on
// counter values, so a fragment like "000107616" or a 1-2 digit "75"
// after a percentage-sized number is a split decimal) is rejoined.
func mendDecimalSplits(fields []string) []string {
	out := make([]string, 0, len(fields))
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		if i+1 < len(fields) && isAllDigits(f) && isAllDigits(fields[i+1]) {
			next := fields[i+1]
			// Timestamp shape, only at the line start: seconds + 6..9
			// digit nanosecond fraction ("1" + "000107616"). Counter
			// values never occupy the first column in interval mode.
			tsShape := len(out) == 0 && len(next) >= 6 && len(next) <= 9
			// Percentage shape, only past the run-ns column: 1-3 digit
			// whole + exactly 2-digit fraction ("99" + "75").
			pctShape := len(out) >= fieldPct && len(f) <= 3 && len(next) == 2
			if tsShape || pctShape {
				out = append(out, f+"."+next)
				i++
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// isAllDigits reports whether s is non-empty ASCII digits only.
func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// parseNum parses a number tolerating surrounding blanks and a
// decimal-comma locale rendering ("1,000107616" as one field, as produced
// with -x\;).
func parseNum(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	if strings.Count(s, ",") == 1 && !strings.Contains(s, ".") {
		s = strings.Replace(s, ",", ".", 1)
	}
	return strconv.ParseFloat(s, 64)
}
