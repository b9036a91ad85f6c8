package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"testing"

	"noble/internal/mat"
)

// FuzzLoadParams feeds LoadParams raw snapshot bytes, as a bundle's
// weights file reaches it from disk. Whatever the bytes, it must not
// panic; a refused snapshot must leave the weights and their packed copy
// as they were; an accepted one must leave exactly the snapshot's values,
// all finite, and no packed copy of the old ones.
func FuzzLoadParams(f *testing.F) {
	encode := func(s snapshot) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	var valid bytes.Buffer
	if err := SaveParams(&valid, NewDense("a", 2, 2, InitXavier, mat.NewRand(37)).Params()); err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= valid.Len(); n += 7 {
		f.Add(valid.Bytes()[:n])
	}
	f.Add(valid.Bytes())
	for _, c := range hostileSnapshots {
		s := goodSnapshot()
		c.corrupt(&s)
		f.Add(encode(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDense("a", 2, 2, InitXavier, mat.NewRand(36))
		d.Pack()
		params := d.Params()
		before := make([][]float64, len(params))
		for i, p := range params {
			before[i] = slices.Clone(p.W.Data)
		}
		packed := d.Weight.packed.Load()

		if err := LoadParams(bytes.NewReader(data), params); err != nil {
			for i, p := range params {
				if !slices.Equal(p.W.Data, before[i]) {
					t.Fatalf("refused snapshot (%v) changed %s", err, p.Name)
				}
			}
			if d.Weight.packed.Load() != packed {
				t.Fatalf("refused snapshot (%v) dropped the packed copy", err)
			}
			return
		}
		var snap snapshot
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
			t.Fatalf("LoadParams accepted bytes gob cannot decode: %v", err)
		}
		for i, p := range params {
			for j, v := range p.W.Data {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					t.Fatalf("accepted snapshot left %s[%d] = %v", p.Name, j, v)
				}
			}
			if !slices.Equal(p.W.Data, snap.Values[i]) {
				t.Fatalf("accepted snapshot left %s = %v, snapshot has %v", p.Name, p.W.Data, snap.Values[i])
			}
		}
		if d.Weight.packed.Load() != nil {
			t.Fatal("accepted snapshot kept the packed copy of the old weights")
		}
	})
}
