package serve

import (
	"encoding/json"
	"math"
	"reflect"
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
	`{"model":"m","fingerprints":[[1]],"deadline_ms":-5}`, // the dialect rejects it, not the parser
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
