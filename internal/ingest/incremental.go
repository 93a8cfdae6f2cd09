package ingest

import (
	"fmt"
	"maps"

	"spire/internal/core"
)

// This file is the streaming half of the ingestion pipeline: ReadCSV's
// row grammar, interval assembly and screening (csvParser), fed one
// arbitrary byte chunk at a time. Two pieces compose:
//
//   - LineSplitter reassembles physical lines across chunk boundaries, so
//     a read that ends mid-line never produces a spurious "garbled"
//     diagnostic — the partial tail is buffered until the rest arrives.
//   - Incremental parses those lines row by row and emits each collection
//     interval as soon as the next interval's first row proves it
//     complete (perf prints all of an interval's rows consecutively).
//
// Feeding the same bytes in any chunking — byte by byte, line by line, or
// all at once — produces identical intervals, identical diagnostics and
// identical stats (property-checked by FuzzStreamFeed). Unlike ReadCSV,
// Incremental cannot re-sort intervals globally: timestamps that go
// backwards are diagnosed (DiagOutOfOrder) and the intervals are emitted
// in arrival order, which is what a live monitor wants anyway.

// maxLineBytes bounds one physical line. ReadCSV's scanner aborts the
// whole run beyond its 1 MiB buffer; the streaming path instead diagnoses
// the oversized line as garbled and keeps going — a live feed must never
// be killed by one corrupt line.
const maxLineBytes = 1 << 20

// LineSplitter splits a byte stream into physical lines across arbitrary
// chunk boundaries. A trailing fragment without a newline is buffered
// until the next Feed (or Flush) completes it. Lines longer than
// maxLineBytes are truncated to a single oversized-line marker rather
// than buffered without bound.
type LineSplitter struct {
	buf      []byte
	dropping bool // current line exceeded maxLineBytes; discard to newline
	overran  bool // report the oversized line once, at emission
}

// Feed appends chunk and invokes emit for every line it completes, in
// order, without the trailing newline. The second emit argument reports
// whether the line overran the length bound (its content is truncated).
func (ls *LineSplitter) Feed(chunk []byte, emit func(line []byte, overran bool)) {
	for len(chunk) > 0 {
		nl := -1
		for i, b := range chunk {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			ls.take(chunk)
			return
		}
		ls.take(chunk[:nl])
		ls.emitLine(emit)
		chunk = chunk[nl+1:]
	}
}

// Flush emits the final unterminated line, if any.
func (ls *LineSplitter) Flush(emit func(line []byte, overran bool)) {
	if len(ls.buf) > 0 || ls.overran {
		ls.emitLine(emit)
	}
}

// Pending reports whether a partial line is buffered.
func (ls *LineSplitter) Pending() bool { return len(ls.buf) > 0 || ls.overran }

// take buffers part of the current line, enforcing the length bound.
func (ls *LineSplitter) take(part []byte) {
	if ls.dropping {
		return
	}
	if len(ls.buf)+len(part) > maxLineBytes {
		room := maxLineBytes - len(ls.buf)
		if room > 0 {
			ls.buf = append(ls.buf, part[:room]...)
		}
		ls.dropping = true
		ls.overran = true
		return
	}
	ls.buf = append(ls.buf, part...)
}

// emitLine hands the buffered line to emit and resets for the next one.
// A trailing '\r' (CRLF input) is stripped.
func (ls *LineSplitter) emitLine(emit func(line []byte, overran bool)) {
	line := ls.buf
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	emit(line, ls.overran)
	ls.buf = ls.buf[:0]
	ls.dropping = false
	ls.overran = false
}

// Interval is one completed collection interval: the assembled,
// per-interval-validated samples ready for windowed estimation. Window
// numbers completed intervals 1, 2, 3, ... in emission order (matching
// ReadCSV's numbering for in-order input); Samples may be empty when the
// interval carried only the fixed-counter rows or everything was
// quarantined.
type Interval struct {
	// TS is the perf interval timestamp in seconds.
	TS float64
	// Window is the 1-based interval sequence number; strictly increasing
	// across one Incremental's lifetime.
	Window int
	// Samples holds the surviving samples, tagged with Window.
	Samples []core.Sample
	// Sched holds the interval's scheduler events, tagged with Window.
	Sched []core.SchedEvent
	// Quarantined counts samples this interval lost to validation.
	Quarantined int
}

// Incremental is the resumable counterpart of ReadCSV: feed it `perf
// stat -x, -I` CSV in arbitrary chunks and collect completed intervals as
// they close. It runs ReadCSV's row grammar, interval assembly and
// screening; only the grouping differs. Intervals are contiguous rows,
// emitted in arrival order (no global re-sort) and screened one at a
// time, and an oversized line becomes a diagnostic instead of a fatal
// read error.
//
// Not safe for concurrent use; callers serialize Feed/Close.
type Incremental struct {
	p      *csvParser
	split  LineSplitter
	cur    *interval
	closed bool
}

// NewIncremental returns a streaming parser with the same options as
// ReadCSV. The Validate options apply per interval, so the dataset-wide
// throughput-outlier screen degenerates to a no-op (every sample in one
// interval shares the same period); structural checks (NaN/Inf, negative
// time, counter wraps) are enforced exactly as in batch mode.
func NewIncremental(opts Options) *Incremental {
	return &Incremental{p: newCSVParser(opts)}
}

// Feed consumes one chunk and returns the intervals it completed, in
// order. In lenient mode the error is always nil; in strict mode the
// first severe anomaly aborts, the error is sticky, and any intervals
// completed before the anomaly are still returned.
func (in *Incremental) Feed(chunk []byte) ([]Interval, error) {
	if in.p.err != nil {
		return nil, in.p.err
	}
	if in.closed {
		return nil, fmt.Errorf("ingest: feed after close")
	}
	var out []Interval
	in.split.Feed(chunk, func(line []byte, overran bool) {
		if in.p.err != nil {
			return
		}
		if iv := in.processLine(string(line), overran); iv != nil {
			out = append(out, *iv)
		}
	})
	return out, in.p.err
}

// Close flushes the trailing partial line and the open interval,
// returning whatever completes. Further Feeds error.
func (in *Incremental) Close() ([]Interval, error) {
	if in.p.err != nil {
		return nil, in.p.err
	}
	if in.closed {
		return nil, nil
	}
	in.closed = true
	var out []Interval
	in.split.Flush(func(line []byte, overran bool) {
		if iv := in.processLine(string(line), overran); iv != nil {
			out = append(out, *iv)
		}
	})
	if in.p.err != nil {
		return out, in.p.err
	}
	if iv := in.completeCurrent(); iv != nil {
		out = append(out, *iv)
	}
	return out, in.p.err
}

// Stats returns a snapshot of the cumulative ingestion statistics so
// far. The maps are copied, so the snapshot stays stable (and safe to
// read from other goroutines) while feeding continues.
func (in *Incremental) Stats() Stats {
	st := in.p.res.Stats
	st.ByClass = maps.Clone(st.ByClass)
	st.SkippedClasses = maps.Clone(st.SkippedClasses)
	return st
}

// TakeDiags drains and returns the retained diagnostics. The retention
// cap (Options.MaxDiags) applies between drains, so a long-running stream
// that drains regularly never loses diagnostics to the cap; Stats.ByClass
// counts stay complete either way.
func (in *Incremental) TakeDiags() []Diag {
	out := in.p.res.Diags
	in.p.res.Diags = nil
	return out
}

// processLine parses one line and groups it: a row whose timestamp
// differs from the open interval's completes that interval and opens the
// next. It returns the interval the line completed, if any.
func (in *Incremental) processLine(raw string, overran bool) *Interval {
	kind, rw, ev := in.p.parseLine(raw, overran)
	if kind == lineNone {
		return nil
	}
	var completed *Interval
	if in.cur == nil || rw.ts != in.cur.ts {
		completed = in.completeCurrent()
		if in.p.err != nil {
			return nil
		}
		in.cur = in.p.open(rw.ts, raw, "emitting in arrival order")
	}
	in.p.add(in.cur, kind, rw, ev, raw)
	return completed
}

// completeCurrent assembles and screens the open interval.
func (in *Incremental) completeCurrent() *Interval {
	iv := in.cur
	in.cur = nil
	var ds core.Dataset
	if iv == nil || !in.p.assemble(iv, &ds) {
		return nil
	}
	clean, rep, err := in.p.res.screen(ds, in.p.opts)
	if err != nil {
		in.p.err = err
		return nil
	}
	return &Interval{
		TS:          iv.ts,
		Window:      in.p.window,
		Samples:     clean.Samples,
		Sched:       clean.Sched,
		Quarantined: rep.Quarantined,
	}
}
