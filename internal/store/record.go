// Package store is the durability layer for tracking sessions: a
// per-shard append-only write-ahead log of session lifecycle events
// (create, IMU segment batch, WiFi re-anchor, close/evict) with
// CRC-framed binary records, size-based log rotation, and periodic
// compacted snapshots so recovery cost is bounded by the live-session
// count rather than total history.
//
// The package knows nothing about models or trackers — events and
// snapshots are plain data (floats, strings, ints) that the serving
// layer maps onto core.PathTracker state. That keeps the wire format
// free of model dependencies: a journal recorded by one build restores
// under any build whose models accept the same segment shapes.
//
// Layout on disk, under one state directory:
//
//	shard-00/wal-0000000001.log      CRC-framed event records
//	shard-00/wal-0000000002.log      (rotated when a segment exceeds RotateBytes)
//	shard-00/snapshot-0000000002.snap  compacted state as of the start of wal 2
//	shard-01/...
//
// Sessions hash onto shards by ID, so all events for one session live
// in one shard file sequence and are totally ordered there; the serving
// layer serializes a session's events under the session lock and stamps
// each with a per-session sequence number, which is what makes
// snapshot/WAL overlap safe to replay (see Load).
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// File magics: eight bytes at the start of every segment and snapshot
// file, versioned so a future format bump can coexist during recovery.
const (
	walMagic  = "NOBWAL01"
	snapMagic = "NOBSNP01"
	magicLen  = 8
)

// maxRecordBytes caps one framed record. The largest legitimate record
// is a snapshot of a session with a wide window (window × segDim
// float64s plus anchors), far under this; anything bigger is framing
// corruption and ends the scan of that segment.
const maxRecordBytes = 16 << 20

// frameHeaderLen is the per-record framing overhead: u32 payload length
// plus u32 CRC-32 (IEEE) of the payload.
const frameHeaderLen = 8

// EventType tags one journal record.
type EventType uint8

const (
	// EvCreate starts a session: model binding, origin anchor, window.
	EvCreate EventType = 1
	// EvSteps is one batch of committed IMU segments with their decoded
	// predictions — everything needed to re-Commit them at restore
	// without running inference.
	EvSteps EventType = 2
	// EvReAnchor fuses an absolute fix into the trajectory. The decoded
	// fix position is stored (restore must not need a WiFi model); the
	// fingerprint that produced it rides along for provenance.
	EvReAnchor EventType = 3
	// EvClose ends a session (explicit delete or TTL eviction).
	EvClose EventType = 4

	// recSnapshot tags a compacted per-session state record inside a
	// snapshot file. Never appears in WAL segments.
	recSnapshot EventType = 5

	// EvLifecycle records a model-generation stage transition (shadow →
	// canary → active → retired) made by the serving layer's deployment
	// pipeline. Unlike the session events above it is keyed by model, not
	// session: Session carries a reserved "\x00lifecycle\x00<model>" key so
	// the event shards consistently per model, and recovery collects these
	// records separately instead of folding them into session histories.
	EvLifecycle EventType = 6
)

// String names the event type for logs and metrics labels.
func (t EventType) String() string {
	switch t {
	case EvCreate:
		return "create"
	case EvSteps:
		return "steps"
	case EvReAnchor:
		return "reanchor"
	case EvClose:
		return "close"
	case recSnapshot:
		return "snapshot"
	case EvLifecycle:
		return "lifecycle"
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Event is one journal record. Exactly one of the payload pointers is
// set, matching Type. Seq is the per-session sequence number (1 for the
// create event, monotonically increasing under the session lock); Gen
// identifies the session incarnation (its creation time in unix
// nanoseconds), so a session ID deleted and re-created is never stitched
// together from two lifetimes' records.
type Event struct {
	Type    EventType
	Session string
	Gen     int64 // incarnation: session CreatedAt, unix nanoseconds
	Seq     int64 // per-session sequence, 1-based
	Time    int64 // wall clock of the append, unix nanoseconds

	Create    *CreateEvent
	Steps     *StepsEvent
	ReAnchor  *ReAnchorEvent
	Close     *CloseEvent
	Lifecycle *LifecycleEvent
}

// CreateEvent binds a new session to an IMU model and an origin.
type CreateEvent struct {
	Model  string
	StartX float64
	StartY float64
	Window int // decode window, already clamped by the tracker
	SegDim int
}

// PredRecord is one decoded step estimate: the fields of a
// core.IMUPrediction as plain numbers.
type PredRecord struct {
	EndX, EndY   float64
	Class        int32
	DispX, DispY float64
}

// StepsEvent is a batch of committed tracking steps: Count segments of
// SegDim features each (flat, in commit order) and their predictions.
// Replaying Commit(seg[i], pred[i]) in order reproduces the tracker
// mutation exactly, with no model in the loop.
type StepsEvent struct {
	SegDim   int
	Count    int
	Features []float64    // Count × SegDim
	Preds    []PredRecord // len Count
}

// ReAnchorEvent snaps the trajectory to an absolute fix. WiFiModel and
// Fingerprint record what produced the fix when it came from the
// localize path; both are empty for an explicit anchor.
type ReAnchorEvent struct {
	X, Y        float64
	WiFiModel   string
	Fingerprint []float64
}

// CloseEvent ends a session.
type CloseEvent struct {
	Evicted bool // true for TTL eviction, false for explicit delete
}

// LifecycleEvent is one model-generation stage transition. BundleID is
// the content fingerprint of the bundle the stage applies to — the
// durable identity that survives restarts (in-memory generation numbers
// do not). From is empty for the initial placement of a generation.
type LifecycleEvent struct {
	Model    string
	BundleID string
	From     string
	To       string
	Reason   string
}

// LifecycleKey returns the reserved Session key lifecycle events for a
// model are appended under, so all of one model's transitions land in
// one shard and replay in append order. The NUL framing cannot collide
// with real session IDs arriving over HTTP paths.
func LifecycleKey(model string) string { return "\x00lifecycle\x00" + model }

// TrackerSnapshot is a core.PathTracker's full mutable state as plain
// data: enough to rebuild the tracker bit-identically (window contents,
// per-segment anchors, latest estimate, origin, lifetime step count).
type TrackerSnapshot struct {
	Window   int
	SegDim   int
	OriginX  float64
	OriginY  float64
	Est      PredRecord
	Steps    int
	Segments []float64 // windowed features, oldest first, n × SegDim
	Anchors  []float64 // n anchor points, flat x,y pairs
}

// SessionSnapshot is one live session's compacted state: everything a
// restore needs without replaying the session's event history. Seq is
// the last event sequence folded into this state — WAL records with
// Seq <= this are already reflected and are skipped at load.
type SessionSnapshot struct {
	ID        string
	Model     string
	Gen       int64 // CreatedAt, unix nanoseconds (the incarnation id)
	LastUsed  int64 // unix nanoseconds
	Seq       int64
	Steps     int64 // lifetime committed segments (the session counter)
	ReAnchors int64
	Tracker   TrackerSnapshot
}

// --- binary encoding -------------------------------------------------
//
// Records are little-endian with length-prefixed strings and slices.
// The framing (length + CRC) lives in frame/readFrame; everything below
// is payload layout.

// enc accumulates one record payload. Payloads built here never reach
// disk directly: every caller hands the finished buffer to frame(),
// which prefixes the length and the CRC that covers it.
//
//vet:walframe-codec
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) i32(v int32)  { e.u32(uint32(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16] // IDs and model names are short; never hit
	}
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) floats(v []float64) {
	e.u32(uint32(len(v)))
	for _, f := range v {
		e.f64(f)
	}
}

type dec struct {
	b   []byte
	off int
	bad bool
}

func (d *dec) fail() { d.bad = true }

func (d *dec) take(n int) []byte {
	if d.bad || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) u8() uint8 {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}
func (d *dec) u16() uint16 {
	v := d.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}
func (d *dec) u32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}
func (d *dec) u64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) str() string  { return string(d.take(int(d.u16()))) }
func (d *dec) floats() []float64 {
	n := int(d.u32())
	// Bound by the remaining bytes before allocating: a corrupt length
	// must not balloon memory.
	if d.bad || n*8 > len(d.b)-d.off {
		d.fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

// done reports a fully-consumed, error-free decode.
func (d *dec) done() bool { return !d.bad && d.off == len(d.b) }

// encodeEvent lays out one event payload.
func encodeEvent(ev *Event) []byte {
	var e enc
	e.u8(uint8(ev.Type))
	e.i64(ev.Time)
	e.i64(ev.Gen)
	e.str(ev.Session)
	e.i64(ev.Seq)
	switch ev.Type {
	case EvCreate:
		c := ev.Create
		e.str(c.Model)
		e.f64(c.StartX)
		e.f64(c.StartY)
		e.u16(uint16(c.Window))
		e.u16(uint16(c.SegDim))
	case EvSteps:
		s := ev.Steps
		e.u16(uint16(s.SegDim))
		e.u16(uint16(s.Count))
		for _, f := range s.Features {
			e.f64(f)
		}
		for _, p := range s.Preds {
			e.f64(p.EndX)
			e.f64(p.EndY)
			e.i32(p.Class)
			e.f64(p.DispX)
			e.f64(p.DispY)
		}
	case EvReAnchor:
		r := ev.ReAnchor
		e.f64(r.X)
		e.f64(r.Y)
		e.str(r.WiFiModel)
		e.floats(r.Fingerprint)
	case EvClose:
		v := uint8(0)
		if ev.Close.Evicted {
			v = 1
		}
		e.u8(v)
	case EvLifecycle:
		l := ev.Lifecycle
		e.str(l.Model)
		e.str(l.BundleID)
		e.str(l.From)
		e.str(l.To)
		e.str(l.Reason)
	}
	return e.b
}

// decodeEvent parses one event payload. A record that does not consume
// its payload exactly is corrupt.
func decodeEvent(b []byte) (Event, error) {
	d := dec{b: b}
	ev := Event{Type: EventType(d.u8())}
	ev.Time = d.i64()
	ev.Gen = d.i64()
	ev.Session = d.str()
	ev.Seq = d.i64()
	switch ev.Type {
	case EvCreate:
		c := &CreateEvent{}
		c.Model = d.str()
		c.StartX = d.f64()
		c.StartY = d.f64()
		c.Window = int(d.u16())
		c.SegDim = int(d.u16())
		ev.Create = c
	case EvSteps:
		s := &StepsEvent{}
		s.SegDim = int(d.u16())
		s.Count = int(d.u16())
		if d.bad || s.SegDim <= 0 || s.Count < 0 || s.Count*s.SegDim*8 > len(b) {
			return ev, fmt.Errorf("store: steps record with implausible shape %d×%d", s.Count, s.SegDim)
		}
		s.Features = make([]float64, s.Count*s.SegDim)
		for i := range s.Features {
			s.Features[i] = d.f64()
		}
		s.Preds = make([]PredRecord, s.Count)
		for i := range s.Preds {
			s.Preds[i] = PredRecord{
				EndX: d.f64(), EndY: d.f64(),
				Class: d.i32(),
				DispX: d.f64(), DispY: d.f64(),
			}
		}
		ev.Steps = s
	case EvReAnchor:
		r := &ReAnchorEvent{}
		r.X = d.f64()
		r.Y = d.f64()
		r.WiFiModel = d.str()
		r.Fingerprint = d.floats()
		ev.ReAnchor = r
	case EvClose:
		// The flag is 0 or 1; any other byte is damage, not a delete.
		v := d.u8()
		if v > 1 {
			d.fail()
		}
		ev.Close = &CloseEvent{Evicted: v == 1}
	case EvLifecycle:
		l := &LifecycleEvent{}
		l.Model = d.str()
		l.BundleID = d.str()
		l.From = d.str()
		l.To = d.str()
		l.Reason = d.str()
		ev.Lifecycle = l
	default:
		return ev, fmt.Errorf("store: unknown record type %d", uint8(ev.Type))
	}
	if !d.done() {
		return ev, fmt.Errorf("store: %s record has %d trailing or missing bytes", ev.Type, len(b)-d.off)
	}
	return ev, nil
}

// encodeSnapshot lays out one session snapshot payload.
func encodeSnapshot(s *SessionSnapshot) []byte {
	var e enc
	e.u8(uint8(recSnapshot))
	e.str(s.ID)
	e.str(s.Model)
	e.i64(s.Gen)
	e.i64(s.LastUsed)
	e.i64(s.Seq)
	e.i64(s.Steps)
	e.i64(s.ReAnchors)
	t := &s.Tracker
	e.u16(uint16(t.Window))
	e.u16(uint16(t.SegDim))
	e.f64(t.OriginX)
	e.f64(t.OriginY)
	e.f64(t.Est.EndX)
	e.f64(t.Est.EndY)
	e.i32(t.Est.Class)
	e.f64(t.Est.DispX)
	e.f64(t.Est.DispY)
	e.u32(uint32(t.Steps))
	e.floats(t.Segments)
	e.floats(t.Anchors)
	return e.b
}

// decodeSnapshot parses one session snapshot payload.
func decodeSnapshot(b []byte) (SessionSnapshot, error) {
	d := dec{b: b}
	var s SessionSnapshot
	if t := EventType(d.u8()); t != recSnapshot {
		return s, fmt.Errorf("store: record type %s in snapshot file", t)
	}
	s.ID = d.str()
	s.Model = d.str()
	s.Gen = d.i64()
	s.LastUsed = d.i64()
	s.Seq = d.i64()
	s.Steps = d.i64()
	s.ReAnchors = d.i64()
	t := &s.Tracker
	t.Window = int(d.u16())
	t.SegDim = int(d.u16())
	t.OriginX = d.f64()
	t.OriginY = d.f64()
	t.Est = PredRecord{
		EndX: d.f64(), EndY: d.f64(),
		Class: d.i32(),
		DispX: d.f64(), DispY: d.f64(),
	}
	t.Steps = int(d.u32())
	t.Segments = d.floats()
	t.Anchors = d.floats()
	if !d.done() {
		return s, fmt.Errorf("store: snapshot record has %d trailing or missing bytes", len(b)-d.off)
	}
	return s, nil
}

// frame wraps a payload in the on-disk record framing.
func frame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}
