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
//
// Numbers are checked against the JSON grammar and converted in one
// pass over their bytes. A token whose mantissa is below 2^53 and whose
// decimal exponent is within ±22 — every value of a 4-digit fingerprint
// — is one exact multiply or divide; any other goes to
// strconv.ParseFloat. Both give the correctly rounded value, so the
// answer is ParseFloat's bit for bit (TestScanNumberMatchesParseFloat),
// and the parse of a 32×160 body takes less than half the time it took
// through ParseFloat (BenchmarkParseLocalize, DESIGN.md §4).

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
				// Fingerprints of one request share a width: size each
				// from the one before instead of growing from 64.
				width := 64
				for {
					fp, ok := p.floatArray(width)
					if !ok {
						return false
					}
					req.Fingerprints = append(req.Fingerprints, fp)
					width = len(fp)
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

// floatArray parses a [n, n, ...] array of JSON numbers into a slice
// with room for width of them.
func (p *scanner) floatArray(width int) ([]float64, bool) {
	if !p.expect('[') {
		return nil, false
	}
	out := make([]float64, 0, width)
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

// maxMantDigits is the significant digits a uint64 mantissa always holds
// (10^19 − 1 < 2^64), as strconv counts them.
const maxMantDigits = 19

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number parses one JSON number token. The grammar check matters:
// strconv.ParseFloat accepts forms JSON forbids (leading '+', bare '.5',
// '1.', leading zeros), and accepting them here would make validation
// depend on which parser a request happened to hit — so anything outside
// the RFC 8259 grammar bails to the encoding/json fallback, which
// rejects it.
//
// The common token — a mantissa below 2^53, so no digit was dropped,
// and a decimal exponent within ±22 — is converted here: mant and
// 10^|exp| are then both exact float64s, so the one IEEE multiply or
// divide rounds the exact decimal value once, to nearest-even, which is
// what ParseFloat returns for every token (and the fast path of its own,
// atof64exact). Everything else goes to ParseFloat.
func (p *scanner) number() (float64, bool) {
	p.skipSpace()
	start := p.pos
	mant, exp, neg, _, ok := p.scanNumber()
	if !ok {
		return 0, false
	}
	if mant < 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if neg {
			f = -f
		}
		if exp < 0 {
			return f / pow10[-exp], true
		}
		return f * pow10[exp], true
	}
	// Zero-copy view of the number token: ParseFloat does not retain its
	// argument, and p.buf is not mutated, so the unsafe.String is sound.
	// This avoids one small allocation per number, which at serving rates
	// is real GC pressure.
	tok := unsafe.String(&p.buf[start], p.pos-start)
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// integer parses one JSON number token that is syntactically an
// integer. A fraction or exponent bails, exactly as encoding/json
// refuses 1500.0 or 1e3 for an int64 — so validation does not depend on
// which parser a request happened to hit — and so does a value outside
// the int64 range, as ParseInt refuses it.
func (p *scanner) integer() (int64, bool) {
	p.skipSpace()
	mant, exp, neg, integral, ok := p.scanNumber()
	if !ok || !integral || exp != 0 {
		return 0, false // more than 19 digits is past the int64 range
	}
	if neg {
		if mant > 1<<63 {
			return 0, false
		}
		return int64(-mant), true // -(1<<63) wraps to math.MinInt64
	}
	if mant > 1<<63-1 {
		return 0, false
	}
	return int64(mant), true
}

// scanNumber consumes one number matching the RFC 8259 grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its sign,
// its first 19 significant decimal digits as an integer and the power of
// ten that scales them to its value. With more digits than that mant is
// at least 10^18, so it fails number's 2^53 test. integral reports no
// fraction and no exponent part, the grammar of an int.
func (p *scanner) scanNumber() (mant uint64, exp int, neg, integral, ok bool) {
	buf, i := p.buf, p.pos
	nd := 0 // significant digits kept in mant
	// digit takes one mantissa digit; frac says it follows the point.
	// Leading zeros are not significant, and a digit past the 19th is
	// dropped — in the integer part it still scales the value.
	digit := func(c byte, frac bool) {
		switch {
		case nd == 0 && c == 0:
		case nd < maxMantDigits:
			mant = mant*10 + uint64(c)
			nd++
		default:
			if !frac {
				exp++
			}
			return
		}
		if frac {
			exp--
		}
	}
	if i < len(buf) && buf[i] == '-' {
		neg = true
		i++
	}
	switch {
	case i >= len(buf):
		return 0, 0, false, false, false
	case buf[i] == '0':
		i++ // a leading zero must stand alone
	case buf[i] >= '1' && buf[i] <= '9':
		for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
			digit(buf[i]-'0', false)
		}
	default:
		return 0, 0, false, false, false
	}
	integral = true
	if i < len(buf) && buf[i] == '.' {
		i++
		integral = false
		start := i
		for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
			digit(buf[i]-'0', true)
		}
		if i == start {
			return 0, 0, false, false, false
		}
	}
	if i < len(buf) && (buf[i] == 'e' || buf[i] == 'E') {
		i++
		integral = false
		eneg := false
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			eneg = buf[i] == '-'
			i++
		}
		e, start := 0, i
		for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
			// strconv's cap, so exp is the one ParseFloat computes even
			// where the cap cuts the exponent short
			if e < 10000 {
				e = e*10 + int(buf[i]-'0')
			}
		}
		if i == start {
			return 0, 0, false, false, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	p.pos = i
	return mant, exp, neg, integral, true
}
