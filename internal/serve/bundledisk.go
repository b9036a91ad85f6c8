package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The registry's disk half: the lifecycle.json sidecar, bundle stamps,
// the directory scan that feeds loaded generations to the stage machine
// (stage.go), and the .active archive that lets a staged deployment
// survive a crash.

// --- lifecycle.json --------------------------------------------------

// LifecyclePolicy is a bundle's promotion contract, declared in its
// lifecycle.json sidecar. Unset fields take withDefaults' values.
type LifecyclePolicy struct {
	// MinShadowRequests is how many mirrored rows plus re-anchor scores
	// a shadow generation must accumulate before it may become a canary.
	MinShadowRequests int64 `json:"min_shadow_requests"`
	// MinCanaryRequests is the evaluation window for promotion to
	// active, in the same units.
	MinCanaryRequests int64 `json:"min_canary_requests"`
	// MaxErrorDeltaM bounds how much worse (meters) the staged
	// generation's live error — re-anchor gap when fixes flow, mirror
	// divergence from the active otherwise — may be than the active's.
	MaxErrorDeltaM float64 `json:"max_error_delta_m"`
	// MaxP99DeltaMS bounds the staged generation's per-row forward-pass
	// p99 regression versus the active, in milliseconds.
	MaxP99DeltaMS float64 `json:"max_p99_delta_ms"`
}

// withDefaults fills the fields a bundle left unset (or non-positive).
func (p LifecyclePolicy) withDefaults() LifecyclePolicy {
	if p.MinShadowRequests <= 0 {
		p.MinShadowRequests = 200
	}
	if p.MinCanaryRequests <= 0 {
		p.MinCanaryRequests = 200
	}
	if p.MaxErrorDeltaM <= 0 {
		p.MaxErrorDeltaM = 1.0
	}
	if p.MaxP99DeltaMS <= 0 {
		p.MaxP99DeltaMS = 5.0
	}
	return p
}

// LifecycleSpec is the lifecycle.json sidecar: the stage the bundle
// wants to reach and the policy gating each promotion. The file is part
// of the bundle stamp, so editing it re-registers the bundle.
type LifecycleSpec struct {
	// Target caps automatic promotion: "shadow" holds for manual
	// promotion, "canary" auto-advances out of shadow then holds,
	// "active" (the default) runs the full pipeline.
	Target string `json:"target"`
	// Immediate bypasses the pipeline entirely: the generation swaps
	// straight to active on load, the pre-lifecycle hot-reload behavior.
	// The escape hatch for hotfixes and for tooling that republishes
	// bundles it has already validated.
	Immediate bool            `json:"immediate"`
	Policy    LifecyclePolicy `json:"policy"`
}

// lifecycleFile is the per-bundle sidecar filename.
const lifecycleFile = "lifecycle.json"

// ReadLifecycleSpec loads the lifecycle sidecar of the bundle in dir; a
// missing file means the default full-auto pipeline.
func ReadLifecycleSpec(dir string) (LifecycleSpec, error) {
	spec := LifecycleSpec{Target: string(StageActive)}
	raw, err := os.ReadFile(filepath.Join(dir, lifecycleFile))
	if os.IsNotExist(err) {
		return spec, nil
	}
	if err != nil {
		return spec, fmt.Errorf("serve: reading %s: %w", lifecycleFile, err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("serve: parsing %s: %w", lifecycleFile, err)
	}
	switch Stage(spec.Target) {
	case StageShadow, StageCanary, StageActive:
	case "":
		spec.Target = string(StageActive)
	default:
		return spec, fmt.Errorf("serve: %s: unknown target stage %q", lifecycleFile, spec.Target)
	}
	return spec, nil
}

// --- bundle stamps ---------------------------------------------------

// bundleStamp fingerprints a whole bundle directory for change
// detection: one sorted line per regular payload file (name, size,
// mtime). Fingerprinting EVERY payload file — not just manifest and
// weights — matters for multi-file bundles: republishing only the
// calibration artifact of an int8 bundle (or editing lifecycle.json)
// must register as a change, or the watcher would keep serving stale
// scales (and the failed-load backoff would never retry a bundle fixed
// by rewriting one side file).
type bundleStamp string

// bundleIDFor reduces a stamp to the short content fingerprint used as
// the generation's durable identity in WAL lifecycle events.
func bundleIDFor(stamp bundleStamp) string {
	h := fnv.New64a()
	io.WriteString(h, string(stamp))
	return strconv.FormatUint(h.Sum64(), 16)
}

// stampBundle fingerprints every regular file in a bundle dir
// (in-progress ".tmp-*" temporaries excluded; the .active archive
// subdirectory is invisible, like any subdirectory). ok is false when
// the dir is not (yet) a complete bundle: no manifest, or the
// manifest's declared weights file is missing.
func stampBundle(dir string) (bundleStamp, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return "", false
	}
	weights := defaultWeightsFile // an unparsable manifest still stamps, so LoadBundle gets to refuse it out loud
	if man, err := parseManifest(raw); err == nil {
		weights = man.Weights
	}
	if _, err := os.Stat(filepath.Join(dir, weights)); err != nil {
		return "", false
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	var b strings.Builder
	for _, e := range entries { // ReadDir sorts by name
		if !e.Type().IsRegular() || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return "", false // racing a republish; settle next poll
		}
		fmt.Fprintf(&b, "%s\x00%d\x00%d\n", e.Name(), fi.Size(), fi.ModTime().UnixNano())
	}
	return bundleStamp(b.String()), true
}

// --- directory scan --------------------------------------------------

// Reload scans the bundle directory, loads new or changed bundles, and
// hands each to the stage machine (deployment.place decides where it
// enters). A name is unloaded only when its directory is gone: one that
// is momentarily not a complete bundle (mid-publish, a payload file
// missing) keeps its deployment, so its bytes cannot come back later as
// a "first load" that skips shadow. Each bundle is rebuilt outside the
// lock; a bundle that fails to load is logged ONCE per distinct broken
// generation — its stamp is remembered and the bundle is not re-read
// until it changes on disk — and its previous generation (if any) keeps
// serving. It returns how many bundles were loaded or replaced and how
// many were removed.
func (r *Registry) Reload() (loaded, removed int, err error) {
	if r.dir == "" {
		return 0, 0, nil
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return 0, 0, err
	}
	present := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		present[name] = true
		dir := filepath.Join(r.dir, name)
		stamp, ok := stampBundle(dir)
		if !ok {
			continue // no manifest yet (or mid-write); not a bundle
		}

		r.mu.RLock()
		d := r.deps[name]
		// Placed already — or this exact broken generation already
		// failed and was logged: re-loading it every poll would spam the
		// log rebuilding a bundle that cannot change without its stamp
		// changing. A republish retries immediately.
		known := d != nil && (d.stamp == stamp || d.failed == stamp)
		r.mu.RUnlock()
		if known {
			continue
		}

		model, lerr := LoadBundle(dir)
		var spec LifecycleSpec
		if lerr == nil {
			if spec, lerr = ReadLifecycleSpec(dir); lerr != nil {
				lerr = fmt.Errorf("serve: bundle %s: %w", name, lerr)
			}
		}
		if lerr != nil {
			r.mu.Lock()
			r.dep(name).failed = stamp
			r.mu.Unlock()
			r.logf("%v (previous generation keeps serving; will not retry until the bundle changes)", lerr)
			continue
		}
		// A publish renames weights into place before the manifest, so a
		// scan racing a republish can read an old manifest next to new
		// weights. If the bundle changed underneath the load, discard
		// the result and leave the stamp unrecorded — the next poll sees
		// the settled bundle and loads it coherently.
		if after, ok := stampBundle(dir); !ok || after != stamp {
			r.logf("serve: bundle %s changed during load, retrying next poll", name)
			continue
		}
		r.place(name, model, spec, stamp)
		loaded++
	}
	// Drop what the directory no longer holds. Programmatic models (no
	// stamp) are untouched.
	r.mu.Lock()
	for name, d := range r.deps {
		if present[name] {
			continue
		}
		d.failed = "" // nothing left on disk to be broken
		switch {
		case d.stamp != "":
			delete(r.deps, name)
			removed++
		case d.active == nil: // the record only ever held a failed load
			delete(r.deps, name)
		}
	}
	r.mu.Unlock()
	return loaded, removed, nil
}

// place gathers what the placement decision needs — the stage recovered
// from the WAL and, if that stage needs one, the archived active, loaded
// outside the lock — and runs it.
func (r *Registry) place(name string, m *Model, spec LifecycleSpec, stamp bundleStamp) {
	m.BundleID = bundleIDFor(stamp)
	m.Policy = spec.Policy
	m.TargetStage = Stage(spec.Target)
	prepare(m, time.Now())

	key := recoveredKey(name, m.BundleID)
	r.mu.RLock()
	p := placement{recovered: r.recovered[key], immediate: spec.Immediate}
	r.mu.RUnlock()
	if p.recovered != "" && p.recovered != StageActive {
		// The crash left this exact bundle staged (or rolled back): the
		// previous active's payload lives in the bundle's .active archive.
		var err error
		if p.archived, err = r.loadArchivedActive(name); err != nil {
			r.logf("serve: bundle %s: recovered stage %s but no usable archived active (%v); activating the on-disk bundle instead", name, p.recovered, err)
		}
	}
	r.apply(func(now time.Time) ([]TransitionEvent, error) {
		d := r.dep(name)
		d.stamp, d.failed = stamp, "" // healthy again; future failures log anew
		delete(r.recovered, key)
		return d.place(m, p, now), nil
	})
}

// Watch polls Reload at the given interval until ctx is canceled. Each
// poll's broken-bundle state is surfaced through the
// noble_registry_broken_bundles gauge (backed by FailedBundles), not
// just the one-shot load-failure log line, so a stuck-broken canary
// stays visible to scrapes.
func (r *Registry) Watch(ctx context.Context, interval time.Duration) {
	if interval <= 0 || r.dir == "" {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if loaded, removed, err := r.Reload(); err != nil {
				r.logf("serve: reload scan: %v", err)
			} else if loaded+removed > 0 {
				r.logf("serve: hot reload: %d bundle(s) loaded, %d removed", loaded, removed)
			}
		}
	}
}

// --- activation archive ----------------------------------------------
//
// A name has exactly one bundle directory, so publishing a shadow
// generation overwrites the active generation's bytes on disk. To make
// staged deployments crash-safe, activating a disk bundle copies its
// payload into the bundle's .active/ subdirectory (invisible to
// stampBundle, which skips subdirectories). After a crash with a
// generation still staged (or freshly rolled back), Reload restores the
// archived payload as the serving active next to the resumed stage.

const (
	activeArchiveDir = ".active"   // per-bundle archive subdirectory
	archiveIDFile    = "bundle.id" // the archived payload's bundle ID
)

// archiveActive replaces a name's .active archive with the payload of
// the bundle that just activated. It runs with the registry lock
// released, so a republish can land before or during the copy;
// bundle.id would then name one payload while the archived files hold
// another, and crash recovery would restore the wrong model. So the
// bundle is stamped before and after the copy, the copy is made in a
// scratch directory beside the archive, and it replaces the archive
// only if both stamps reduce to bundleID. On any error the previous
// archive stays. Caller holds hookMu, which keeps two archives of one
// name off the same scratch directory.
func (r *Registry) archiveActive(name, bundleID string) error {
	src := filepath.Join(r.dir, name)
	dst := filepath.Join(src, activeArchiveDir)
	if raw, err := os.ReadFile(filepath.Join(dst, archiveIDFile)); err == nil && strings.TrimSpace(string(raw)) == bundleID {
		return nil // this exact payload is already archived
	}
	before, ok := stampBundle(src)
	if !ok || bundleIDFor(before) != bundleID {
		return errors.New("bundle republished since activation")
	}
	tmp := dst + ".tmp"
	os.RemoveAll(tmp)       // left behind by a crash mid-copy
	defer os.RemoveAll(tmp) // nothing left to remove once renamed
	if err := r.copyPayload(src, tmp, bundleID); err != nil {
		return err
	}
	if after, ok := stampBundle(src); !ok || after != before {
		return errors.New("bundle republished during the copy")
	}
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return os.Rename(tmp, dst)
}

// copyBundlePayload copies every regular payload file of a bundle into
// dst and records the payload's bundle ID, each file written atomically.
func copyBundlePayload(src, dst, bundleID string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		err = atomicWrite(filepath.Join(dst, e.Name()), func(f *os.File) error {
			_, cerr := io.Copy(f, in)
			return cerr
		})
		in.Close()
		if err != nil {
			return err
		}
	}
	return atomicWrite(filepath.Join(dst, archiveIDFile), func(f *os.File) error {
		_, err := io.WriteString(f, bundleID+"\n")
		return err
	})
}

// loadArchivedActive rebuilds the archived active generation of a name.
func (r *Registry) loadArchivedActive(name string) (*Model, error) {
	dir := filepath.Join(r.dir, name, activeArchiveDir)
	raw, err := os.ReadFile(filepath.Join(dir, archiveIDFile))
	if err != nil {
		return nil, fmt.Errorf("no archived active payload: %w", err)
	}
	m, err := LoadBundle(dir)
	if err != nil {
		return nil, fmt.Errorf("loading archived active payload: %w", err)
	}
	m.Name = name // the archive dir's base name is .active, not the model
	m.BundleID = strings.TrimSpace(string(raw))
	prepare(m, time.Now())
	return m, nil
}
