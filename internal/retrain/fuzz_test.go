package retrain

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenCorpus: arbitrary corpus.json and shard bytes never panic the
// reader, and a corpus it accepts survives Save → OpenCorpus with the
// same per-model counts while nothing outside the corpus dir is written
// or removed. The shard bytes land under the name a real first Save of
// demo-wifi uses, and again outside the dir, where an index that escapes
// would find them. Seeds under testdata/fuzz: a real Save's index and
// shard, and the index shapes that used to panic the reader or let Save
// delete the outside file.
func FuzzOpenCorpus(f *testing.F) {
	const shardName, outsideName = "fixes-demo-wifi-g1.json", "outside.json"
	f.Fuzz(func(t *testing.T, index, shard []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "corpus")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for path, raw := range map[string][]byte{
			filepath.Join(dir, metaFile):     index,
			filepath.Join(dir, shardName):    shard,
			filepath.Join(root, outsideName): shard,
		} {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := OpenCorpus(dir)
		if err != nil {
			return
		}
		want := c.Counts()
		if err := c.Save(); err != nil {
			t.Fatalf("saving an accepted corpus: %v", err)
		}
		again, err := OpenCorpus(dir)
		if err != nil {
			t.Fatalf("reopening a saved corpus: %v", err)
		}
		if got := again.Counts(); !maps.Equal(got, want) {
			t.Fatalf("counts %v after Save, %v before", got, want)
		}
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 || entries[0].Name() != "corpus" || entries[1].Name() != outsideName {
			t.Fatalf("Save touched the corpus dir's parent: %v", entries)
		}
		if raw, err := os.ReadFile(filepath.Join(root, outsideName)); err != nil || !bytes.Equal(raw, shard) {
			t.Fatalf("Save changed a file outside the corpus dir (%v)", err)
		}
	})
}
