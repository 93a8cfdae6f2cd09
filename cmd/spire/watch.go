package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spire/internal/ingest"
	"spire/internal/stream"
)

// cmdWatch tails a live `perf stat -x, -I` CSV stream — a growing file or
// stdin — and prints one sliding-window bottleneck estimation per
// completed interval. The output is byte-stable: the same input bytes
// produce the same lines regardless of how reads chunk them, so the
// command is scriptable (and golden-testable) despite being "live".
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model file")
	window := fs.Int("window", stream.DefaultWindowIntervals, "sliding window span in intervals")
	top := fs.Int("top", 5, "candidate bottleneck metrics kept per window (0 = all)")
	jsonOut := fs.Bool("json", false, "print one compact JSON result per line instead of text")
	follow := fs.Bool("follow", false, "keep watching for growth after EOF, like tail -f")
	poll := fs.Duration("poll", 500*time.Millisecond, "how often -follow re-checks for new input")
	strict := fs.Bool("strict", false, "abort on the first severe anomaly instead of quarantining")
	verbose := fs.Bool("v", false, "print every retained diagnostic to stderr as it happens")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf(`watch takes exactly one input: a CSV file or "-" for stdin`)
	}

	ens, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	id, err := ens.Fingerprint()
	if err != nil {
		return err
	}

	in := os.Stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	opts := ingest.Options{Mode: ingest.Lenient}
	if *strict {
		opts.Mode = ingest.Strict
	}
	p := stream.NewPipeline(stream.Config{
		WindowIntervals: *window,
		Top:             *top,
		Ingest:          opts,
		Model:           stream.StaticModel(ens, id),
	})

	// SIGINT/SIGTERM ends the watch but still flushes the final open
	// interval, so an interrupted live session keeps its last window.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The blocking Reads happen in their own goroutine so a signal
	// interrupts the watch immediately even while a pipe/stdin Read is
	// parked with no data (a plain read loop would only notice ctx after
	// the Read returned). The goroutine owns the buffer handoff: it sends
	// a chunk, then waits for the main loop to hand the buffer back before
	// reusing it, so no copying is needed. On EOF it either finishes or,
	// with -follow, polls for growth itself. It may stay parked in one
	// last Read after cancellation — fine for a process about to exit.
	type chunk struct {
		data []byte
		err  error
	}
	chunks := make(chan chunk)
	bufBack := make(chan []byte, 1)
	go func() {
		defer close(chunks)
		buf := make([]byte, 64<<10)
		for {
			n, rerr := in.Read(buf)
			if rerr == io.EOF && *follow {
				if n > 0 {
					select {
					case chunks <- chunk{data: buf[:n]}:
					case <-ctx.Done():
						return
					}
					select {
					case buf = <-bufBack:
					case <-ctx.Done():
						return
					}
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(*poll):
				}
				continue
			}
			select {
			case chunks <- chunk{data: buf[:n], err: rerr}:
			case <-ctx.Done():
				return
			}
			if rerr != nil {
				return
			}
			select {
			case buf = <-bufBack:
			case <-ctx.Done():
				return
			}
		}
	}()

	interrupted := false
read:
	for {
		var ck chunk
		var ok bool
		select {
		case <-ctx.Done():
			interrupted = true
			break read
		case ck, ok = <-chunks:
			if !ok {
				interrupted = true // reader exited on cancellation
				break read
			}
		}
		if len(ck.data) > 0 {
			results, err := p.Feed(ctx, ck.data)
			if eerr := emitWatch(results, *jsonOut); eerr != nil {
				return eerr
			}
			drainDiags(p, *verbose)
			if err != nil && !errors.Is(err, context.Canceled) {
				return err // sticky strict-mode abort
			}
		}
		switch {
		case ck.err == io.EOF:
			break read
		case ck.err != nil:
			return ck.err
		default:
			bufBack <- ck.data[:cap(ck.data)]
		}
	}

	// Flush the trailing partial line and final open interval. After an
	// interrupt the watch ctx is already cancelled, so flush on a fresh
	// one — the stream is over either way.
	flushCtx := ctx
	if interrupted {
		flushCtx = context.Background()
	}
	results, ferr := p.Close(flushCtx)
	if eerr := emitWatch(results, *jsonOut); eerr != nil {
		return eerr
	}
	drainDiags(p, *verbose)
	if ferr != nil && !errors.Is(ferr, context.Canceled) {
		return ferr
	}

	st := p.Stats()
	fmt.Fprintf(os.Stderr, "spire watch: %d lines, %d intervals, %d samples\n",
		st.Lines, st.Intervals, st.Samples)
	if severe := st.SevereDiags(); severe > 0 {
		return fmt.Errorf("%w: %d severe anomalies quarantined (details on stderr)", errPartialIngest, severe)
	}
	return nil
}

// emitWatch prints window results to stdout: compact JSON lines (exactly
// the /v1/stream SSE data payloads) or a one-line text digest per window.
func emitWatch(results []stream.Result, jsonOut bool) error {
	for _, res := range results {
		if jsonOut {
			raw, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Println(string(raw))
			continue
		}
		if res.Error != "" {
			fmt.Printf("window %d  [%.3f..%.3f]  intervals %d  samples %d  error: %s\n",
				res.Seq, res.StartTS, res.EndTS, res.Intervals, res.Samples, res.Error)
			continue
		}
		est := res.Estimation
		head := "-"
		if len(est.PerMetric) > 0 {
			head = est.PerMetric[0].Metric
		}
		fmt.Printf("window %d  [%.3f..%.3f]  samples %d  measured %.3f  bound %.3f  bottleneck %s\n",
			res.Seq, res.StartTS, res.EndTS, res.Samples,
			est.MeasuredThroughput, est.MaxThroughput, head)
	}
	return nil
}

// drainDiags empties the pipeline's retained diagnostics, printing them
// when verbose. Draining even when quiet keeps retention bounded on
// endless streams; the final stats line still carries the per-class
// totals.
func drainDiags(p *stream.Pipeline, verbose bool) {
	diags := p.TakeDiags()
	if !verbose {
		return
	}
	for _, d := range diags {
		if d.Line > 0 {
			fmt.Fprintf(os.Stderr, "spire watch: line %d [%s] %s\n", d.Line, d.ClassName, d.Msg)
		} else {
			fmt.Fprintf(os.Stderr, "spire watch: [%s] %s\n", d.ClassName, d.Msg)
		}
	}
}
