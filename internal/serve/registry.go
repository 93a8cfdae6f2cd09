package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spire/internal/core"
)

// ModelInfo is the registry's public description of one model version.
type ModelInfo struct {
	// ID is the content-addressed version: the hex SHA-256 of the model's
	// canonical Save encoding. Equal models share an ID no matter how
	// they arrived.
	ID string `json:"id"`
	// Sequence numbers swaps monotonically: 1 for the first model loaded,
	// incremented on every successful swap (including re-uploads of an
	// earlier model).
	Sequence uint64 `json:"sequence"`
	// Metrics counts the rooflines in the model.
	Metrics int `json:"metrics"`
	// WorkUnit / TimeUnit echo the model's throughput units.
	WorkUnit string `json:"workUnit"`
	TimeUnit string `json:"timeUnit"`
	// Source records where the model came from ("file:<path>", "upload").
	Source string `json:"source"`
	// LoadedAt is when the registry accepted the version.
	LoadedAt time.Time `json:"loadedAt"`
}

// modelVersion pairs a validated immutable ensemble with its info.
type modelVersion struct {
	info ModelInfo
	ens  *core.Ensemble
}

// Registry holds the currently served model and a bounded history of
// accepted versions. Swaps are atomic: estimators load the current
// version with a single atomic pointer read and keep using that immutable
// snapshot for the whole request, so a concurrent swap can never produce
// a torn (half-old, half-new) estimation.
type Registry struct {
	cur     atomic.Pointer[modelVersion]
	mu      sync.Mutex // serializes swaps and history updates
	seq     uint64
	history []ModelInfo // most recent last, bounded
	maxHist int
	dir     string // optional persistence directory ("" = memory only)

	onSwap func(ModelInfo) // optional hook for metrics
}

// NewRegistry returns an empty registry. dir, when non-empty, is where
// accepted uploads are persisted as <id>.json; it is created on demand.
func NewRegistry(dir string) *Registry {
	return &Registry{maxHist: 32, dir: dir}
}

// errModelRejected marks validation failures so handlers can map them to
// 422 instead of 500.
type modelRejectedError struct{ err error }

func (e *modelRejectedError) Error() string { return fmt.Sprintf("model rejected: %v", e.err) }
func (e *modelRejectedError) Unwrap() error { return e.err }

// Current returns the served model version, or nil when none is loaded.
func (r *Registry) Current() (*core.Ensemble, *ModelInfo) {
	mv := r.cur.Load()
	if mv == nil {
		return nil, nil
	}
	info := mv.info
	return mv.ens, &info
}

// History returns the accepted versions, oldest first.
func (r *Registry) History() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ModelInfo(nil), r.history...)
}

// Load decodes, validates and atomically installs a model from src.
// The model must carry the versioned envelope core.Ensemble.Save writes,
// decode cleanly, and satisfy every roofline invariant; anything else is
// rejected with a *modelRejectedError and the served model is untouched.
func (r *Registry) Load(src io.Reader, source string) (*ModelInfo, error) {
	ens, id, err := decodeModel(src)
	if err != nil {
		return nil, err
	}
	return r.install(ens, id, source)
}

// decodeModel decodes and validates a model, returning it with its
// fingerprint; failures are *modelRejectedError.
func decodeModel(src io.Reader) (*core.Ensemble, string, error) {
	ens, err := core.LoadEnsemble(src)
	if err != nil {
		return nil, "", &modelRejectedError{err}
	}
	if err := ens.CheckInvariants(); err != nil {
		return nil, "", &modelRejectedError{err}
	}
	id, err := ens.Fingerprint()
	if err != nil {
		return nil, "", &modelRejectedError{fmt.Errorf("model is not re-encodable: %w", err)}
	}
	return ens, id, nil
}

// install atomically swaps in a validated model and persists it.
func (r *Registry) install(ens *core.Ensemble, id, source string) (*ModelInfo, error) {
	r.mu.Lock()
	r.seq++
	info := ModelInfo{
		ID:       id,
		Sequence: r.seq,
		Metrics:  len(ens.Rooflines),
		WorkUnit: ens.WorkUnit,
		TimeUnit: ens.TimeUnit,
		Source:   source,
		LoadedAt: time.Now().UTC(),
	}
	r.history = append(r.history, info)
	if len(r.history) > r.maxHist {
		r.history = r.history[len(r.history)-r.maxHist:]
	}
	r.cur.Store(&modelVersion{info: info, ens: ens})
	hook := r.onSwap
	r.mu.Unlock()

	if r.dir != "" {
		if err := r.persist(ens, id); err != nil {
			// The swap already happened and the model is good; surface
			// persistence trouble without unserving it.
			return &info, fmt.Errorf("model %s installed but not persisted: %w", shortID(id), err)
		}
	}
	if hook != nil {
		hook(info)
	}
	return &info, nil
}

// LoadFile installs a model from a file on disk.
func (r *Registry) LoadFile(path string) (*ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return r.Load(f, "file:"+filepath.Base(path))
}

// persist writes the canonical encoding to dir/<id>.json atomically:
// temp file, fsync, rename, fsync of the directory. A final file that is
// already there is kept only if its bytes still hash to its name; a torn
// or garbled one is rewritten.
func (r *Registry) persist(ens *core.Ensemble, id string) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(r.dir, id+".json")
	if b, err := os.ReadFile(final); err == nil {
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) == id {
			return nil // content-addressed: already on disk, intact
		}
	}
	var buf bytes.Buffer
	if err := ens.Save(&buf); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(r.dir, ".model-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(buf.Bytes())
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = syncDir(r.dir)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), final)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(r.dir)
}

// syncDir fsyncs a directory so the entries created or renamed in it
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadLatestFromDir resumes a persisted registry at startup: it installs
// the most recently modified dir/<id>.json that decodes, validates and
// whose fingerprint equals its <id>, trying older files when a newer one
// is torn or garbled. It returns nil when dir holds no model file, and
// the newest file's error when none of them is usable.
func (r *Registry) LoadLatestFromDir() (*ModelInfo, error) {
	if r.dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type cand struct {
		name string
		mod  time.Time
	}
	var cands []cand
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		cands = append(cands, cand{name: e.Name(), mod: fi.ModTime()})
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].mod.Equal(cands[j].mod) {
			return cands[i].mod.After(cands[j].mod)
		}
		return cands[i].name < cands[j].name
	})
	var firstErr error
	for _, c := range cands {
		ens, id, err := r.loadCandidate(c.name)
		if err == nil {
			return r.install(ens, id, "file:"+c.name)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil, firstErr
}

// loadCandidate decodes and validates dir/name, requiring the model's
// fingerprint to equal the ID its file name claims.
func (r *Registry) loadCandidate(name string) (*core.Ensemble, string, error) {
	f, err := os.Open(filepath.Join(r.dir, name))
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	ens, id, err := decodeModel(f)
	if err != nil {
		return nil, "", err
	}
	if want := strings.TrimSuffix(name, ".json"); id != want {
		return nil, "", fmt.Errorf("fingerprint %s does not match file name", shortID(id))
	}
	return ens, id, nil
}

// shortID abbreviates a fingerprint for log lines.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
