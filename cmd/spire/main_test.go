package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spire/internal/core"
	"spire/internal/perfstat"
	"spire/internal/sim"
	"spire/internal/uarch"
	"spire/internal/workloads"
)

// writeSamples collects a small dataset from a suite workload and writes
// it to dir.
func writeSamples(t *testing.T, dir, workload string) string {
	t.Helper()
	spec, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(uarch.Default(), spec.Build(0.02), 3)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := perfstat.Collect(s, workload, perfstat.Options{
		IntervalCycles: 10_000,
		MaxCycles:      300_000,
		Multiplex:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, workload+".json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := core.WriteDataset(f, data); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTrainAnalyzeInfoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d1 := writeSamples(t, dir, "fftw")
	d2 := writeSamples(t, dir, "remhos")
	target := writeSamples(t, dir, "onnx")
	model := filepath.Join(dir, "model.json")

	if err := cmdTrain([]string{"-o", model, d1, d2}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}
	htmlPath := filepath.Join(dir, "report.html")
	if err := cmdAnalyze([]string{"-model", model, "-top", "5", "-interpret", "-timeline", "-html", htmlPath, target}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatalf("html report not written: %v", err)
	}
	if !strings.Contains(string(html), "<svg") {
		t.Error("html report missing plots")
	}
	if err := cmdInfo([]string{"-model", model}); err != nil {
		t.Fatalf("info: %v", err)
	}
}

// TestTrainWorkersDeterministic: the -workers flag must not change the
// model file, and -v prints the skip summary.
func TestTrainWorkersDeterministic(t *testing.T) {
	dir := t.TempDir()
	d1 := writeSamples(t, dir, "fftw")
	d2 := writeSamples(t, dir, "remhos")

	serial := filepath.Join(dir, "serial.json")
	if err := cmdTrain([]string{"-o", serial, "-workers", "1", d1, d2}); err != nil {
		t.Fatalf("train -workers 1: %v", err)
	}
	want, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"0", "4", "13"} {
		out := filepath.Join(dir, "par"+w+".json")
		if err := cmdTrain([]string{"-o", out, "-workers", w, "-v", d1, d2}); err != nil {
			t.Fatalf("train -workers %s: %v", w, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("-workers %s produced a different model than -workers 1", w)
		}
	}

	// The model any worker count produced must analyze.
	if err := cmdAnalyze([]string{"-model", serial, d1}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
}

func TestTrainNoDatasets(t *testing.T) {
	if err := cmdTrain([]string{"-o", filepath.Join(t.TempDir(), "m.json")}); err == nil {
		t.Error("expected error with no dataset files")
	}
}

func TestAnalyzeMissingModel(t *testing.T) {
	dir := t.TempDir()
	d := writeSamples(t, dir, "fftw")
	if err := cmdAnalyze([]string{"-model", filepath.Join(dir, "missing.json"), d}); err == nil {
		t.Error("expected error for missing model")
	}
}

func TestReadDatasetsBadFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readDatasets([]string{bad}); err == nil {
		t.Error("expected decode error")
	}
	if _, err := readDatasets([]string{filepath.Join(dir, "nope.json")}); err == nil {
		t.Error("expected open error")
	}
	if _, err := readDatasets(nil); err == nil {
		t.Error("expected error for empty path list")
	}
}

func TestDiffCommand(t *testing.T) {
	dir := t.TempDir()
	d1 := writeSamples(t, dir, "fftw")
	d2 := writeSamples(t, dir, "remhos")
	before := writeSamples(t, dir, "onnx")
	after := writeSamples(t, dir, "qmcpack") // stand-in for "optimized"
	model := filepath.Join(dir, "model.json")
	if err := cmdTrain([]string{"-o", model, d1, d2}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := cmdDiff([]string{"-model", model, "-top", "5", before, after}); err != nil {
		t.Fatalf("diff: %v", err)
	}
	if err := cmdDiff([]string{"-model", model, before}); err == nil {
		t.Error("diff with one dataset should fail")
	}
	if err := cmdDiff([]string{"-model", filepath.Join(dir, "none.json"), before, after}); err == nil {
		t.Error("diff with missing model should fail")
	}
}
