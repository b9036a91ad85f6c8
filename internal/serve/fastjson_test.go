package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fastParseAccepts are valid requests the fast scanner must take itself
// and parse exactly as encoding/json does.
var fastParseAccepts = []string{
	`{"model":"m","fingerprints":[[0.1,0.25,0],[1,2.5e-3,-4]]}`,
	`{"fingerprints":[[0.5]],"model":"other"}`, // key order
	`{"model":"m","fingerprints":[[]]}`,
	`{"model":"m","fingerprints":[]}`,
	"{ \"model\" : \"m\" ,\n \"fingerprints\" : [ [ 1 , 2 ] ] }",
	// Duplicate keys are valid JSON; encoding/json is last-wins and
	// the fast path must agree.
	`{"model":"a","model":"b","fingerprints":[[1]],"fingerprints":[[2],[3]]}`,
	`{"model":"m","fingerprints":[[0.1,0.2]],"deadline_ms":250}`,
	`{"deadline_ms":10,"model":"m","fingerprints":[[1]]}`,
	`{"deadline_ms":5,"deadline_ms":9,"model":"m","fingerprints":[[1]]}`,
	`{"model":"m","fingerprints":[[1]],"deadline_ms":-5}`, // requestContext rejects it, not the parser
}

// fastParseBails are inputs the fast scanner must *reject* (not
// mis-parse): the decoder then falls back to encoding/json, which
// accepts the valid ones.
var fastParseBails = []string{
	`{"model":"a\"b","fingerprints":[[1]]}`,    // escape in string
	`{"model":"m","fingerprints":[[1]],"x":1}`, // unknown key
	// Raw control characters are invalid JSON, and encoding/json replaces
	// invalid UTF-8: both are the slow path's call.
	"{\"model\":\"a\tb\",\"fingerprints\":[[1]]}",
	"{\"model\":\"\xff\",\"fingerprints\":[[1]]}",
	`{"model":"m","fingerprints":[[1]]} trail`, // trailing garbage
	`{"model":"m","fingerprints":[["1"]]}`,     // non-number element
	`{"model":"m","fingerprints":[[1],[2],]}`,  // trailing comma
	`{"model":"m"`, // truncated
	`[]`,           // wrong top level
	// Number forms RFC 8259 forbids but strconv.ParseFloat accepts:
	// the fast path must reject them so validation stays identical
	// to the encoding/json fallback.
	`{"model":"m","fingerprints":[[.5]]}`,
	`{"model":"m","fingerprints":[[+1]]}`,
	`{"model":"m","fingerprints":[[01]]}`,
	`{"model":"m","fingerprints":[[1.]]}`,
	`{"model":"m","fingerprints":[[1.5e]]}`,
	`{"model":"m","fingerprints":[[0x1]]}`,
	// Integer-VALUED non-integer syntax (2000.0, 1e3): json.Unmarshal
	// into int64 rejects it, so accepting it here would make validation
	// depend on which parser a request hit.
	`{"model":"m","fingerprints":[[1]],"deadline_ms":12.5}`,
	`{"model":"m","fingerprints":[[1]],"deadline_ms":2000.0}`,
	`{"model":"m","fingerprints":[[1]],"deadline_ms":1e3}`,
	`{"model":"m","fingerprints":[[1]],"deadline_ms":"10"}`,
	`{"model":"m","fingerprints":[[1]],"deadline":10}`, // unknown key
}

// sameLocalizeRequest compares field for field; a nil and an empty
// slice are the same request (the two parsers allocate differently).
func sameLocalizeRequest(a, b LocalizeRequest) bool {
	if a.Model != b.Model || a.DeadlineMs != b.DeadlineMs || len(a.Fingerprints) != len(b.Fingerprints) {
		return false
	}
	for i := range a.Fingerprints {
		x, y := a.Fingerprints[i], b.Fingerprints[i]
		if len(x) != len(y) {
			return false
		}
		for j := range x {
			// Bit equality: +0 and -0 differ, NaN cannot occur in JSON.
			if math.Float64bits(x[j]) != math.Float64bits(y[j]) {
				return false
			}
		}
	}
	return true
}

func TestParseLocalizeMatchesEncodingJSON(t *testing.T) {
	for _, raw := range fastParseAccepts {
		var want LocalizeRequest
		if err := json.Unmarshal([]byte(raw), &want); err != nil {
			t.Fatalf("bad test case %q: %v", raw, err)
		}
		var got LocalizeRequest
		if !parseLocalize([]byte(raw), &got) {
			t.Fatalf("fast parse rejected valid request %q", raw)
		}
		if !sameLocalizeRequest(got, want) {
			t.Fatalf("fast parse of %q: got %+v, want %+v", raw, got, want)
		}
	}
}

func TestParseLocalizeBailsToSlowPath(t *testing.T) {
	for _, raw := range fastParseBails {
		var req LocalizeRequest
		if parseLocalize([]byte(raw), &req) {
			t.Fatalf("fast parse accepted %q", raw)
		}
	}
}

// FuzzParseLocalize is the differential check on the one hand-rolled
// parser in the request path: for any input, the fast scanner either
// bails (and encoding/json decides) or agrees with encoding/json field
// for field — including deadline_ms, duplicate keys and the RFC 8259
// number grammar. It must never accept what encoding/json rejects.
func FuzzParseLocalize(f *testing.F) {
	for _, raw := range fastParseAccepts {
		f.Add([]byte(raw))
	}
	for _, raw := range fastParseBails {
		f.Add([]byte(raw))
	}
	for _, tok := range numberEdgeTokens {
		f.Add([]byte(`{"model":"m","fingerprints":[[` + tok + `,1]]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got LocalizeRequest
		if !parseLocalize(data, &got) {
			return
		}
		var want LocalizeRequest
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("fast parse accepted %q, encoding/json rejects it: %v", data, err)
		}
		if !sameLocalizeRequest(got, want) {
			t.Fatalf("fast parse of %q: got %+v, encoding/json %+v", data, got, want)
		}
	})
}

func TestAppendLocalizeMatchesEncodingJSON(t *testing.T) {
	for _, reqID := range []string{"", "req-7"} {
		resp := LocalizeResponse{
			RequestID: reqID,
			Model:     "m",
			Results: []Position{
				{X: 1.5, Y: -2.25, Class: 3, Building: 1, Floor: 2},
				{X: math.Pi, Y: 0},
			},
		}
		got := appendLocalize(nil, &resp)
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if string(got) != string(want) {
			t.Fatalf("hand-encoded response differs from encoding/json:\n got %s\nwant %s", got, want)
		}
		var back LocalizeResponse
		if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, resp) {
			t.Fatalf("round trip changed the response (%v): %+v != %+v", err, back, resp)
		}
	}
}

// numberEdgeTokens sit on the edges of scanner.number's exact path and
// of float64 itself.
var numberEdgeTokens = []string{
	"0", "-0", "-0.0", "0e5", "-0e-5",
	"9007199254740992", "9007199254740993", "-9007199254740993", // 2^53, 2^53+1
	"1234567890123456789", "12345678901234567890", // 19 and 20 digits
	"1.234567890123456789", "1.2345678901234567891", "99999999999999999999e-20",
	"1e22", "1e23", "1e-22", "1e-23", "9007199254740991e22", "9007199254740991e-22",
	"5e-324", "2e-324", "4.9406564584124654e-324", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1e308", "1e309", "-1e309", "1e-400", "1e99999999999",
	"0.0000000000000000000000000000000000000000000000000000000000000001234",
	// Long runs of leading zeros that a large exponent brings back into
	// range. ParseFloat stops reading an exponent once it reaches 10000,
	// so it returns 0.1 for the last and overflows on the one before:
	// number must agree on both.
	"0." + strings.Repeat("0", 30000) + "1e30005", "0." + strings.Repeat("0", 9990) + "15e9999",
	"0." + strings.Repeat("0", 1000) + "1e10005", "0." + strings.Repeat("0", 10000) + "1e100005",
	"0.1", "0.2", "0.3", "0.5432", "123.456e-7", "1E+2", "1e-0",
}

// TestScanNumberMatchesParseFloat is the exactness argument run as a
// test: on every token — over a million random float64 values rendered
// as 'g', 'e' and 'f', plus the edge tokens — scanner.number returns the
// bits strconv.ParseFloat returns, and refuses what it refuses.
func TestScanNumberMatchesParseFloat(t *testing.T) {
	check := func(tok string) { // no t.Helper: it would cost more than the parse
		want, err := strconv.ParseFloat(tok, 64)
		p := &scanner{buf: []byte(tok)}
		got, ok := p.number()
		switch {
		case ok != (err == nil):
			t.Fatalf("%q: number ok=%v, ParseFloat err=%v", tok, ok, err)
		case ok && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%q: number %v (%#x), ParseFloat %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
		case ok && p.pos != len(tok):
			t.Fatalf("%q: number stopped at byte %d", tok, p.pos)
		}
	}
	for _, tok := range numberEdgeTokens {
		check(tok)
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < 1_000_000; i++ {
		var v float64
		switch i % 4 {
		case 0: // any finite float64
			for v = math.Inf(1); math.IsInf(v, 0) || math.IsNaN(v); {
				v = math.Float64frombits(rng.Uint64())
			}
		case 1: // a 4-digit reading, the payload's shape
			v = math.Round(rng.Float64()*1e4) / 1e4
		case 2: // an integer mantissa around 2^53 scaled by 10^±25
			v = float64(rng.Int63n(1<<54)) * math.Pow(10, float64(rng.Intn(51)-25))
		default: // a shorter mantissa at a random scale
			v = float64(rng.Int63n(1e9)) * math.Pow(10, float64(rng.Intn(61)-30))
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		prec := -1
		if rng.Intn(4) == 0 {
			prec = rng.Intn(25)
		}
		for _, verb := range []byte{'g', 'e', 'f'} {
			buf = strconv.AppendFloat(buf[:0], v, verb, prec, 64)
			check(string(buf))
		}
	}
}

// TestScanIntegerMatchesParseInt: deadline_ms's integer scan takes and
// refuses exactly what ParseInt does on JSON-grammar integer tokens, and
// refuses every fraction or exponent.
func TestScanIntegerMatchesParseInt(t *testing.T) {
	toks := []string{
		"0", "-0", "7", "-7", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "18446744073709551615",
		"18446744073709551616", "99999999999999999999", "1234567890123456789",
		"1.0", "1e3", "-1E0",
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		toks = append(toks, strconv.FormatInt(rng.Int63()>>rng.Intn(63)*int64(1-2*rng.Intn(2)), 10))
	}
	for _, tok := range toks {
		want, err := strconv.ParseInt(tok, 10, 64)
		p := &scanner{buf: []byte(tok)}
		got, ok := p.integer()
		if ok != (err == nil) || got != want && ok {
			t.Fatalf("%q: integer (%d, %v), ParseInt (%d, %v)", tok, got, ok, want, err)
		}
	}
}

// BenchmarkParseLocalize parses a localize_bulk-shaped body: 32
// fingerprints of 160 values, ~30 % of them non-zero with 4 digits.
func BenchmarkParseLocalize(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	req := LocalizeRequest{Model: "bench-wifi", Fingerprints: make([][]float64, 32)}
	for i := range req.Fingerprints {
		fp := make([]float64, 160)
		for j := range fp {
			if rng.Float64() < 0.3 {
				fp[j] = math.Round(rng.Float64()*1e4) / 1e4
			}
		}
		req.Fingerprints[i] = fp
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if !parseLocalize(body, &parsedSink) {
			b.Fatal("fast parse refused the body")
		}
	}
}

var parsedSink LocalizeRequest
