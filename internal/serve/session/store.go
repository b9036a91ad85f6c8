package session

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"noble/internal/obs"
)

// numShards is the lock-stripe width. 64 shards keep the per-shard maps
// small and make same-instant lookups for different devices effectively
// contention-free; the constant cost (64 mutexes + map headers) is
// negligible next to one session.
const numShards = 64

// Store is the sharded session registry. The zero value is not usable;
// construct with NewStore.
type Store struct {
	ttl     time.Duration
	shards  [numShards]shard
	onEvict func(*Session) // see SetOnEvict

	created   atomic.Int64
	evicted   atomic.Int64
	deleted   atomic.Int64
	steps     atomic.Int64
	reanchors atomic.Int64
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*Session
}

// NewStore returns a store evicting sessions idle longer than ttl;
// ttl <= 0 disables eviction (sessions live until deleted).
func NewStore(ttl time.Duration) *Store {
	st := &Store{ttl: ttl}
	for i := range st.shards {
		st.shards[i].m = make(map[string]*Session)
	}
	return st
}

// TTL returns the idle eviction threshold (0 = never).
func (st *Store) TTL() time.Duration { return st.ttl }

// SetOnEvict installs a hook the sweeper calls once for each session it
// evicts, after the tombstone is set and the session is unmapped, with
// no store or session lock held (the hook may do I/O — the durability
// journal records the eviction through it). By then the sweeper is the
// session's only remaining writer: every later resolver of the pointer
// sees Gone() under the lock and backs off. Call before any sweeping
// starts; the hook must not call back into the store.
func (st *Store) SetOnEvict(fn func(*Session)) { st.onEvict = fn }

// ForEach calls fn for every session resolvable at the time of the
// scan, without holding any shard lock during the calls — fn may take
// session locks freely (a session deleted between the scan and the call
// reports Gone under its lock). Used by journal compaction to snapshot
// live sessions.
func (st *Store) ForEach(fn func(*Session)) {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		batch := make([]*Session, 0, len(sh.m))
		for _, s := range sh.m {
			batch = append(batch, s)
		}
		sh.mu.RUnlock()
		for _, s := range batch {
			fn(s)
		}
	}
}

// shardFor hashes id (FNV-1a) onto its stripe.
func (st *Store) shardFor(id string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return &st.shards[h%numShards]
}

// Get resolves a live session.
func (st *Store) Get(id string) (*Session, bool) {
	sh := st.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	return s, ok
}

// GetOrCreate resolves a session, calling init to build it when absent.
// created reports whether this call inserted the session; under a
// racing create exactly one caller builds it and the rest observe it.
// init runs under the shard's write lock, so it must be cheap and must
// not call back into the store.
func (st *Store) GetOrCreate(id string, init func() (*Session, error)) (s *Session, created bool, err error) {
	sh := st.shardFor(id)
	sh.mu.RLock()
	s = sh.m[id]
	sh.mu.RUnlock()
	if s != nil {
		return s, false, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s = sh.m[id]; s != nil {
		return s, false, nil
	}
	s, err = init()
	if err != nil {
		return nil, false, err
	}
	sh.m[id] = s
	st.created.Add(1)
	return s, true, nil
}

// Delete removes a session, reporting whether it existed. Callers that
// can race an in-flight request (anything beyond tests and teardown)
// must hold the session's lock and MarkGone it first — the tombstone is
// what tells a handler that resolved the pointer before the removal
// that its session is orphaned (see Session.Gone). Lock order is safe:
// session lock then shard lock never deadlocks against the sweeper,
// which only TryLocks sessions.
func (st *Store) Delete(id string) bool {
	sh := st.shardFor(id)
	sh.mu.Lock()
	_, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if ok {
		st.deleted.Add(1)
	}
	return ok
}

// Len counts live sessions across all shards.
func (st *Store) Len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Sweep evicts sessions idle longer than the TTL as of now, one shard
// at a time, and returns how many it removed. A session whose mutex is
// held (a request mid-step) is skipped: it is live no matter what its
// last-touch stamp says.
func (st *Store) Sweep(now time.Time) int {
	if st.ttl <= 0 {
		return 0
	}
	cutoff := now.Add(-st.ttl)
	evicted := 0
	var hooked []*Session // evicted this shard pass; hook runs lock-free
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for id, s := range sh.m {
			if s.LastUsed().After(cutoff) || !s.TryLock() {
				continue
			}
			// Re-check under the session lock: a request may have
			// touched it between the stamp read and the acquire.
			if !s.LastUsed().After(cutoff) {
				// Tombstone before removal, still under the session
				// lock: a handler that did Get before this eviction won
				// the pointer but not the lock — when it finally locks,
				// Gone() tells it the session no longer exists, so it
				// reports session_not_found instead of silently updating
				// orphaned state.
				s.MarkGone()
				delete(sh.m, id)
				evicted++
				if st.onEvict != nil {
					hooked = append(hooked, s)
				}
			}
			s.Unlock()
		}
		sh.mu.Unlock()
		// The hook may do I/O (the durability journal records the
		// eviction), so it runs after the shard lock is gone. Safe
		// without the session lock too: the session is tombstoned and
		// unmapped, so this sweeper is its only remaining writer.
		for _, s := range hooked {
			st.onEvict(s)
		}
		hooked = hooked[:0]
	}
	st.evicted.Add(int64(evicted))
	return evicted
}

// Run sweeps at the given interval until ctx is done. interval <= 0
// defaults to a quarter of the TTL (bounding how long past its TTL a
// session can linger); with no TTL Run returns immediately.
func (st *Store) Run(ctx context.Context, interval time.Duration) {
	if st.ttl <= 0 {
		return
	}
	if interval <= 0 {
		interval = st.ttl / 4
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			st.Sweep(time.Now())
		}
	}
}

// NoteSteps adds n committed tracking steps to the aggregate counter.
func (st *Store) NoteSteps(n int) { st.steps.Add(int64(n)) }

// NoteReAnchor counts one fused absolute fix.
func (st *Store) NoteReAnchor() { st.reanchors.Add(1) }

// Stats is a consistent-enough snapshot of the aggregate counters for
// introspection endpoints.
type Stats struct {
	Active    int
	Created   int64
	Evicted   int64
	Deleted   int64
	Steps     int64
	ReAnchors int64
}

// Snapshot reads the counters.
func (st *Store) Snapshot() Stats {
	return Stats{
		Active:    st.Len(),
		Created:   st.created.Load(),
		Evicted:   st.evicted.Load(),
		Deleted:   st.deleted.Load(),
		Steps:     st.steps.Load(),
		ReAnchors: st.reanchors.Load(),
	}
}

// WritePrometheus renders the session gauges and counters in the
// Prometheus text exposition format.
func (st *Store) WritePrometheus(w io.Writer) {
	s := st.Snapshot()
	obs.Single(w, "noble_sessions_active", "gauge", "Live tracking sessions.", s.Active)
	f := obs.NewFamily(w, "noble_sessions_total", "counter", "Tracking sessions by lifecycle event.")
	f.Sample("", `event="created"`, s.Created)
	f.Sample("", `event="evicted"`, s.Evicted)
	f.Sample("", `event="deleted"`, s.Deleted)
	obs.Single(w, "noble_session_steps_total", "counter", "IMU segments committed across all sessions.", s.Steps)
	obs.Single(w, "noble_session_reanchors_total", "counter", "WiFi fixes fused into session trajectories.", s.ReAnchors)
}
