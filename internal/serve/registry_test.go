package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spire/internal/testutil"
)

// persistTwo persists models A (older) and B (newest) in a fresh
// directory and returns it with both IDs.
func persistTwo(t *testing.T) (dir, idA, idB string, modelB []byte) {
	t.Helper()
	dir = t.TempDir()
	_, modelA := testutil.TrainModel(t, 1)
	_, modelB = testutil.TrainModel(t, 3)
	r := NewRegistry(dir)
	infoA, err := r.Load(bytes.NewReader(modelA), "test")
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := r.Load(bytes.NewReader(modelB), "test")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	touch(t, filepath.Join(dir, infoA.ID+".json"), now.Add(-time.Hour))
	touch(t, filepath.Join(dir, infoB.ID+".json"), now)
	return dir, infoA.ID, infoB.ID, modelB
}

func touch(t *testing.T, path string, mod time.Time) {
	t.Helper()
	if err := os.Chtimes(path, mod, mod); err != nil {
		t.Fatal(err)
	}
}

// TestLoadLatestSkipsDamagedNewest: a torn or garbled newest model file
// must not stop a resume while an older valid model sits beside it, and
// re-installing the damaged model must rewrite its file.
func TestLoadLatestSkipsDamagedNewest(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"garbled": func(b []byte) []byte {
			g := append([]byte(nil), b...)
			copy(g[len(g)/3:], bytes.Repeat([]byte{'#'}, 32))
			return g
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, idA, idB, modelB := persistTwo(t)
			pathB := filepath.Join(dir, idB+".json")
			good, err := os.ReadFile(pathB)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(pathB, damage(good), 0o644); err != nil {
				t.Fatal(err)
			}
			touch(t, pathB, time.Now())

			r := NewRegistry(dir)
			info, err := r.LoadLatestFromDir()
			if err != nil {
				t.Fatalf("resume with a damaged newest file: %v", err)
			}
			if info == nil || info.ID != idA {
				t.Fatalf("resumed %+v, want the older intact model %s", info, shortID(idA))
			}

			if _, err := r.Load(bytes.NewReader(modelB), "upload"); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(pathB); !bytes.Equal(got, good) {
				t.Error("re-installing the model left its damaged file on disk")
			}
		})
	}
}

// TestLoadLatestRequiresNameMatch: a valid model stored under another
// model's ID is not resumed.
func TestLoadLatestRequiresNameMatch(t *testing.T) {
	dir, idA, idB, modelB := persistTwo(t)
	if err := os.Remove(filepath.Join(dir, idB+".json")); err != nil {
		t.Fatal(err)
	}
	misnamed := filepath.Join(dir, "0123456789abcdef.json")
	if err := os.WriteFile(misnamed, modelB, 0o644); err != nil {
		t.Fatal(err)
	}
	touch(t, misnamed, time.Now())
	info, err := NewRegistry(dir).LoadLatestFromDir()
	if err != nil || info == nil || info.ID != idA {
		t.Fatalf("resumed %+v, %v; want %s", info, err, shortID(idA))
	}
}

// TestLoadLatestAllDamaged: with no usable file the resume fails loudly
// rather than starting empty over a damaged directory.
func TestLoadLatestAllDamaged(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "abc.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := NewRegistry(dir).LoadLatestFromDir(); err == nil {
		t.Fatalf("resumed %+v from a damaged directory", info)
	}
}
