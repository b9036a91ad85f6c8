// Package retrain closes the model lifecycle loop: it harvests the
// WiFi re-anchor fixes the session WAL already records into a durable
// training corpus, decides when accumulated drift warrants a retrain,
// and re-runs the noble-train path (internal/train) on seed data
// augmented with the harvested corpus — publishing the result back
// into the bundle directory, where the PR-9 deployment pipeline places
// it in SHADOW and the lifecycle controller decides, on live evidence,
// whether it ever serves. The package never touches the registry or
// deployment state directly: a bad retrain is structurally incapable
// of reaching traffic.
//
// NObLe's premise makes this loop cheap: every re-anchor fix is a
// fingerprint labeled with the position the deployment accepted as
// ground truth — free supervision (the find3/UNILoc argument for
// server-side refresh under RF drift). The fix position for a
// fingerprint-produced anchor is the serving model's own localize
// answer, so retraining on the corpus alone would only distill the
// teacher; mixing it with the seed survey anchors the grid geometry
// while the harvested mass re-weights training toward the regions
// devices actually occupy. The accuracy gate and the shadow→canary→
// active pipeline are what make that safe to do unattended.
package retrain

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"noble/internal/store"
)

// corpusVersion is the on-disk corpus format version.
const corpusVersion = 1

// metaFile is the corpus index filename.
const metaFile = "corpus.json"

// Fix is one corpus entry: a harvested store.ReAnchorFix with JSON
// field names pinned (the corpus is an on-disk format read across
// retrain generations, not an in-memory convenience).
type Fix struct {
	Session string `json:"session"`
	Gen     int64  `json:"gen"`
	Seq     int64  `json:"seq"`
	Time    int64  `json:"time"`

	WiFiModel   string    `json:"wifi_model"`
	Fingerprint []float64 `json:"fingerprint"`
	X           float64   `json:"x"`
	Y           float64   `json:"y"`

	SegDim int       `json:"seg_dim,omitempty"`
	Window []float64 `json:"window,omitempty"`
}

// key is the dedup identity: a session incarnation plus sequence number
// names exactly one WAL record, so re-harvesting overlapping segment
// files (or a snapshot-covered prefix re-read through later segments)
// can never double-count a fix.
func (f *Fix) key() string {
	return f.Session + "\x00" + strconv.FormatInt(f.Gen, 10) + "\x00" + strconv.FormatInt(f.Seq, 10)
}

// corpusMeta is the corpus.json index: version, a monotonically
// increasing generation (bumped by every Save), and the per-model shard
// files the fixes live in.
type corpusMeta struct {
	Version    int                    `json:"version"`
	Generation int64                  `json:"generation"`
	Models     map[string]*modelShard `json:"models"`
}

type modelShard struct {
	File     string `json:"file"`
	Fixes    int    `json:"fixes"`
	OldestNS int64  `json:"oldest_ns"`
	NewestNS int64  `json:"newest_ns"`
}

// Corpus is the on-disk training corpus: corpus.json plus one JSON
// shard per WiFi model. Load with OpenCorpus, mutate with Add/Prune,
// persist with Save. Not safe for concurrent use; the manager and the
// CLI both serialize access.
type Corpus struct {
	dir   string
	meta  corpusMeta
	fixes map[string][]Fix // per model, (Time, Session, Seq) order
	seen  map[string]struct{}
}

// OpenCorpus loads the corpus at dir, or returns an empty corpus when
// the directory (or its index) does not exist yet. The index is bytes
// this process did not necessarily write, so it is refused unless every
// shard it names is a plain file in dir and every model name makes one
// (the next Save writes and removes those names). A shard with no fixes
// is dropped: Save writes none for it.
func OpenCorpus(dir string) (*Corpus, error) {
	c := &Corpus{
		dir:   dir,
		meta:  corpusMeta{Version: corpusVersion, Models: map[string]*modelShard{}},
		fixes: map[string][]Fix{},
		seen:  map[string]struct{}{},
	}
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading corpus index: %w", err)
	}
	if err := json.Unmarshal(raw, &c.meta); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", metaFile, err)
	}
	if c.meta.Version != corpusVersion {
		return nil, fmt.Errorf("corpus version %d (this build reads %d)", c.meta.Version, corpusVersion)
	}
	if c.meta.Models == nil {
		c.meta.Models = map[string]*modelShard{}
	}
	for model, sh := range c.meta.Models {
		if sh == nil {
			return nil, fmt.Errorf("corpus index: model %q has no shard", model)
		}
		if !plainName(sh.File) {
			return nil, fmt.Errorf("corpus index: model %q: shard %q is not a file name in the corpus dir", model, sh.File)
		}
		if _, err := shardFile(model, c.meta.Generation+1); err != nil {
			return nil, fmt.Errorf("corpus index: %w", err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, sh.File))
		if err != nil {
			return nil, fmt.Errorf("reading corpus shard %s: %w", sh.File, err)
		}
		var fixes []Fix
		if err := json.Unmarshal(raw, &fixes); err != nil {
			return nil, fmt.Errorf("decoding corpus shard %s: %w", sh.File, err)
		}
		if len(fixes) == 0 {
			continue
		}
		c.fixes[model] = fixes
		for i := range fixes {
			c.seen[fixes[i].key()] = struct{}{}
		}
	}
	return c, nil
}

// Dir returns the corpus directory.
func (c *Corpus) Dir() string { return c.dir }

// Generation returns the persisted corpus generation (0 before the
// first Save).
func (c *Corpus) Generation() int64 { return c.meta.Generation }

// Add merges harvested fixes into the corpus, deduplicating by
// (session, gen, seq), and reports how many were new.
func (c *Corpus) Add(fixes []store.ReAnchorFix) int {
	added := 0
	for i := range fixes {
		f := Fix{
			Session:     fixes[i].Session,
			Gen:         fixes[i].Gen,
			Seq:         fixes[i].Seq,
			Time:        fixes[i].Time,
			WiFiModel:   fixes[i].WiFiModel,
			Fingerprint: fixes[i].Fingerprint,
			X:           fixes[i].X,
			Y:           fixes[i].Y,
			SegDim:      fixes[i].SegDim,
			Window:      fixes[i].Window,
		}
		k := f.key()
		if _, dup := c.seen[k]; dup {
			continue
		}
		c.seen[k] = struct{}{}
		c.fixes[f.WiFiModel] = append(c.fixes[f.WiFiModel], f)
		added++
	}
	return added
}

// Prune applies the retention policy: fixes older than the retention
// window (by record wall clock) are dropped, then each model's set is
// capped to the newest maxPerModel entries. Zero disables either
// bound. It reports how many fixes were removed.
func (c *Corpus) Prune(now time.Time, retention time.Duration, maxPerModel int) int {
	removed := 0
	cutoff := int64(0)
	if retention > 0 {
		cutoff = now.Add(-retention).UnixNano()
	}
	for model, fixes := range c.fixes {
		sort.SliceStable(fixes, func(i, j int) bool { return fixes[i].Time < fixes[j].Time })
		kept := fixes[:0]
		for i := range fixes {
			if cutoff > 0 && fixes[i].Time < cutoff {
				delete(c.seen, fixes[i].key())
				removed++
				continue
			}
			kept = append(kept, fixes[i])
		}
		if maxPerModel > 0 && len(kept) > maxPerModel {
			for i := range kept[:len(kept)-maxPerModel] {
				delete(c.seen, kept[i].key())
				removed++
			}
			kept = append(kept[:0], kept[len(kept)-maxPerModel:]...)
		}
		if len(kept) == 0 {
			delete(c.fixes, model)
			continue
		}
		c.fixes[model] = kept
	}
	return removed
}

// Fixes returns the model's corpus entries in time order.
func (c *Corpus) Fixes(model string) []Fix { return c.fixes[model] }

// Models returns the model names with at least one fix, sorted.
func (c *Corpus) Models() []string {
	out := make([]string, 0, len(c.fixes))
	for m := range c.fixes {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the total fix count across models.
func (c *Corpus) Len() int {
	n := 0
	for _, fixes := range c.fixes {
		n += len(fixes)
	}
	return n
}

// Counts returns the per-model fix counts.
func (c *Corpus) Counts() map[string]int {
	out := make(map[string]int, len(c.fixes))
	for m, fixes := range c.fixes {
		out[m] = len(fixes)
	}
	return out
}

// Save persists the corpus as a new generation: every model's fixes are
// written to a fresh generation-named shard (atomic tmp+rename, fsync
// before the rename lands), corpus.json is swapped to point at the new
// shards, and the previous generation's shard files are removed. A
// crash mid-save leaves the old index intact and at worst some
// unreferenced shard files, which the next Save sweeps.
func (c *Corpus) Save() error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	gen := c.meta.Generation + 1
	meta := corpusMeta{Version: corpusVersion, Generation: gen, Models: map[string]*modelShard{}}
	for _, model := range c.Models() {
		file, err := shardFile(model, gen)
		if err != nil {
			return err
		}
		fixes := c.fixes[model]
		sort.SliceStable(fixes, func(i, j int) bool { return fixes[i].Time < fixes[j].Time })
		sh := &modelShard{
			File:     file,
			Fixes:    len(fixes),
			OldestNS: fixes[0].Time,
			NewestNS: fixes[len(fixes)-1].Time,
		}
		if err := writeFileAtomic(filepath.Join(c.dir, sh.File), fixes); err != nil {
			return fmt.Errorf("writing corpus shard for %s: %w", model, err)
		}
		meta.Models[model] = sh
	}
	if err := writeFileAtomic(filepath.Join(c.dir, metaFile), &meta); err != nil {
		return fmt.Errorf("writing corpus index: %w", err)
	}
	old := c.meta
	c.meta = meta
	// The old generation's shards are garbage once the index no longer
	// references them; removal failures are harmless (swept next Save).
	for _, sh := range old.Models {
		still := false
		for _, now := range meta.Models {
			if now.File == sh.File {
				still = true
			}
		}
		if !still {
			os.Remove(filepath.Join(c.dir, sh.File))
		}
	}
	return nil
}

// shardFile names model's shard for generation gen, refusing a model
// name that would put it anywhere but directly in the corpus dir.
func shardFile(model string, gen int64) (string, error) {
	file := fmt.Sprintf("fixes-%s-g%d.json", model, gen)
	if !plainName(file) {
		return "", fmt.Errorf("model %q does not make a shard file name", model)
	}
	return file, nil
}

// plainName reports whether name is a single file name (no separator,
// not "." or "..", no NUL, within the usual 255-byte limit), so joining
// it to the corpus dir cannot leave the dir.
func plainName(name string) bool {
	return name != "." && len(name) <= 255 && filepath.IsLocal(name) && !strings.ContainsAny(name, "/\\\x00")
}

// writeFileAtomic marshals v as JSON and lands it at path via a
// same-directory tmp file, fsync, and rename — the corpus must never be
// half-written, and Close/Sync errors are checked because a dropped
// buffer here silently loses training evidence.
func writeFileAtomic(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
