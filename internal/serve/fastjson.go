package serve

import (
	"strconv"
	"unsafe"
)

// Hand-rolled JSON fast paths for localize: the exact request shape
// {"model":"...","fingerprints":[[...],...]} is parsed by a small
// scanner and the response encoded without reflection. They stay because
// the benchmark says so: short-circuited to encoding/json, localize_bulk
// lost 6 of 6 alternating pairs (median throughput_ops_s -11 %,
// cpu_ms_per_op +12 %, latency_p50_ms +16 %; DESIGN.md §4). Anything the
// scanner does not recognize — escapes, unknown keys, unexpected
// nesting — makes it bail to encoding/json, which defines behavior.

// parseLocalize attempts the fast parse of data into req, reporting
// whether it succeeded. On false the caller must re-parse with
// encoding/json (req may be partially filled). "deadline_ms" takes
// integer values only — anything else bails to the fallback, which
// rejects it.
func parseLocalize(data []byte, req *LocalizeRequest) bool {
	p := &scanner{buf: data}
	if !p.expect('{') {
		return false
	}
	for {
		key, ok := p.simpleString()
		if !ok || !p.expect(':') {
			return false
		}
		switch key {
		case "model":
			if req.Model, ok = p.simpleString(); !ok {
				return false
			}
		case "deadline_ms":
			// duplicate keys are last-wins, like encoding/json
			if req.DeadlineMs, ok = p.integer(); !ok {
				return false
			}
		case "fingerprints":
			req.Fingerprints = nil // duplicate keys are last-wins, like encoding/json
			if !p.expect('[') {
				return false
			}
			if p.peek() == ']' {
				p.pos++
			} else {
				for {
					fp, ok := p.floatArray()
					if !ok {
						return false
					}
					req.Fingerprints = append(req.Fingerprints, fp)
					if p.peek() == ',' {
						p.pos++
						continue
					}
					break
				}
				if !p.expect(']') {
					return false
				}
			}
		default:
			return false // unknown key: let encoding/json decide
		}
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if !p.expect('}') {
		return false
	}
	p.skipSpace()
	return p.pos == len(p.buf)
}

// appendLocalize renders resp without reflection, byte-identical to
// encoding/json's output (shortest round-trip float formatting,
// request_id omitted when empty).
func appendLocalize(b []byte, resp *LocalizeResponse) []byte {
	b = append(b, '{')
	if resp.RequestID != "" {
		b = append(b, `"request_id":`...)
		b = strconv.AppendQuote(b, resp.RequestID)
		b = append(b, ',')
	}
	b = append(b, `"model":`...)
	b = strconv.AppendQuote(b, resp.Model)
	b = append(b, `,"results":[`...)
	for i := range resp.Results {
		r := &resp.Results[i]
		if i > 0 {
			b = append(b, ',')
		}
		// 'g', -1: the shortest form that round-trips, like encoding/json
		// for the values produced here.
		b = append(b, `{"x":`...)
		b = strconv.AppendFloat(b, r.X, 'g', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, r.Y, 'g', -1, 64)
		b = append(b, `,"class":`...)
		b = strconv.AppendInt(b, int64(r.Class), 10)
		b = append(b, `,"building":`...)
		b = strconv.AppendInt(b, int64(r.Building), 10)
		b = append(b, `,"floor":`...)
		b = strconv.AppendInt(b, int64(r.Floor), 10)
		b = append(b, '}')
	}
	b = append(b, ']', '}', '\n')
	return b
}

// scanner is a minimal JSON tokenizer over a byte slice.
type scanner struct {
	buf []byte
	pos int
}

func (p *scanner) skipSpace() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (p *scanner) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.buf) {
		return 0
	}
	return p.buf[p.pos]
}

// expect consumes c, reporting whether it was next.
func (p *scanner) expect(c byte) bool {
	if p.peek() != c {
		return false
	}
	p.pos++
	return true
}

// simpleString parses a quoted string of printable ASCII without escape
// sequences. A backslash, a control character (which JSON forbids raw)
// or a non-ASCII byte (which encoding/json validates as UTF-8, replacing
// what is not) bails out to the slow path.
func (p *scanner) simpleString() (string, bool) {
	if !p.expect('"') {
		return "", false
	}
	start := p.pos
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case c == '"':
			s := string(p.buf[start:p.pos])
			p.pos++
			return s, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return "", false
		default:
			p.pos++
		}
	}
	return "", false
}

// floatArray parses a [n, n, ...] array of JSON numbers.
func (p *scanner) floatArray() ([]float64, bool) {
	if !p.expect('[') {
		return nil, false
	}
	out := make([]float64, 0, 64)
	if p.peek() == ']' {
		p.pos++
		return out, true
	}
	for {
		v, ok := p.number()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if !p.expect(']') {
		return nil, false
	}
	return out, true
}

// number parses one JSON number token. The grammar check matters:
// strconv.ParseFloat accepts forms JSON forbids (leading '+', bare '.5',
// '1.', leading zeros), and accepting them here would make validation
// depend on which parser a request happened to hit — so anything outside
// the RFC 8259 grammar bails to the encoding/json fallback, which
// rejects it.
func (p *scanner) number() (float64, bool) {
	p.skipSpace()
	start := p.pos
	if !p.jsonNumber() {
		return 0, false
	}
	// Zero-copy view of the number token: ParseFloat does not retain its
	// argument, and p.buf is not mutated, so the unsafe.String is sound.
	// This avoids one small allocation per number — hundreds per
	// fingerprint — which at serving rates is real GC pressure.
	tok := unsafe.String(&p.buf[start], p.pos-start)
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// integer parses one JSON number token that is syntactically an
// integer. ParseInt rejects a fraction or exponent, exactly as
// encoding/json does when decoding 1500.0 or 1e3 into an int64 — so
// those bail to the fallback, and validation does not depend on which
// parser a request happened to hit.
func (p *scanner) integer() (int64, bool) {
	p.skipSpace()
	start := p.pos
	if !p.jsonNumber() {
		return 0, false
	}
	v, err := strconv.ParseInt(string(p.buf[start:p.pos]), 10, 64)
	return v, err == nil
}

// jsonNumber consumes one number matching the RFC 8259 grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *scanner) jsonNumber() bool {
	digits := func() int {
		n := 0
		for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
			p.pos++
			n++
		}
		return n
	}
	if p.pos < len(p.buf) && p.buf[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos >= len(p.buf):
		return false
	case p.buf[p.pos] == '0':
		p.pos++ // a leading zero must stand alone
	case p.buf[p.pos] >= '1' && p.buf[p.pos] <= '9':
		digits()
	default:
		return false
	}
	if p.pos < len(p.buf) && p.buf[p.pos] == '.' {
		p.pos++
		if digits() == 0 {
			return false
		}
	}
	if p.pos < len(p.buf) && (p.buf[p.pos] == 'e' || p.buf[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.buf) && (p.buf[p.pos] == '+' || p.buf[p.pos] == '-') {
			p.pos++
		}
		if digits() == 0 {
			return false
		}
	}
	return true
}
