package ingest

import (
	"fmt"
	"io"

	"spire/internal/core"
)

// ReadJSON ingests a simulator-format JSON dataset (core.WriteDataset
// output) through the same validation/quarantine layer as the CSV path. A
// malformed document is an error in both modes — there is no meaningful
// partial recovery from broken JSON — but per-sample anomalies quarantine
// (lenient) or abort (strict) exactly like CSV rows.
func ReadJSON(r io.Reader, opts Options) (*Result, error) {
	opts.setDefaults()
	res := &Result{}
	d, err := core.ReadDataset(r)
	if err != nil {
		return res, fmt.Errorf("ingest: %w", err)
	}
	// JSON datasets carry window tags; count the distinct ones as
	// intervals for the summary.
	windows := make(map[int]bool)
	for _, s := range d.Samples {
		windows[s.Window] = true
	}
	res.Stats.Intervals = len(windows)
	res.Dataset, res.Validation, err = res.screen(d, opts)
	return res, err
}
