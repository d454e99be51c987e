package storage_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/storage"
)

func TestRoundTripFig1(t *testing.T) {
	g := fig1.Graph()
	var buf bytes.Buffer
	if err := storage.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := storage.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats() != g2.Stats() {
		t.Errorf("stats: %v vs %v", g.Stats(), g2.Stats())
	}
	if err := g2.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	will, ok := g2.EntityByName("Will Smith")
	if !ok || len(g2.Entity(will).Types) != 2 {
		t.Error("multi-typed entity lost")
	}
	// Edge identity preserved in order.
	for i := 0; i < g.NumEdges(); i++ {
		a := g.Edge(graph.EdgeID(i))
		b := g2.Edge(graph.EdgeID(i))
		if g.EntityName(a.From) != g2.EntityName(b.From) ||
			g.EntityName(a.To) != g2.EntityName(b.To) ||
			g.RelType(a.Rel).Name != g2.RelType(b.Rel).Name {
			t.Fatalf("edge %d differs after round trip", i)
		}
	}
}

func TestRoundTripGeneratedDomain(t *testing.T) {
	g, err := freebase.Generate("basketball", freebase.GenOptions{Scale: 1e-4, Seed: 7, MinEntities: 300, MinEdges: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := storage.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats() != g2.Stats() {
		t.Errorf("stats: %v vs %v", g.Stats(), g2.Stats())
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	g := fig1.Graph()
	var buf bytes.Buffer
	if err := storage.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the middle (entity names region).
	data[len(data)/2] ^= 0xff
	_, err := storage.Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("corrupted snapshot read succeeded")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	_, err := storage.Read(bytes.NewReader([]byte("NOPE....")))
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}
	// Valid magic, bogus version.
	_, err = storage.Read(bytes.NewReader([]byte{'E', 'G', 'P', 'T', 99}))
	if err == nil {
		t.Error("unsupported version accepted")
	}
}

func TestTruncatedSnapshot(t *testing.T) {
	g := fig1.Graph()
	var buf bytes.Buffer
	if err := storage.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{5, len(data) / 2, len(data) - 2} {
		if _, err := storage.Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestEmptyGraphRoundTrip(t *testing.T) {
	var b graph.Builder
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := storage.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEntities() != 0 || g2.NumTypes() != 0 {
		t.Error("empty graph round trip not empty")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig1.egpt")
	g := fig1.Graph()
	if err := storage.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := storage.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats() != g2.Stats() {
		t.Errorf("stats: %v vs %v", g.Stats(), g2.Stats())
	}
	if _, err := storage.LoadFile(filepath.Join(dir, "missing.egpt")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestCheckpointerSkipsUnchangedEpochs(t *testing.T) {
	dir := t.TempDir()
	ck := storage.NewDurableCheckpointer(dir, "g", nil)
	g := fig1.Graph()

	wrote, err := ck.Save(g, 0)
	if err != nil || !wrote {
		t.Fatalf("first save: wrote=%v err=%v, want write", wrote, err)
	}
	wrote, err = ck.Save(g, 0)
	if err != nil || wrote {
		t.Fatalf("same-epoch save: wrote=%v err=%v, want skip", wrote, err)
	}
	wrote, err = ck.Save(g, 3)
	if err != nil || !wrote {
		t.Fatalf("new-epoch save: wrote=%v err=%v, want write", wrote, err)
	}

	loaded, _, _, err := storage.LoadLatestCheckpoint(dir, "g")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != g.Stats() {
		t.Fatalf("checkpoint round trip: %v vs %v", loaded.Stats(), g.Stats())
	}
}

func TestCheckpointerFailureStaysRetryable(t *testing.T) {
	// A directory that does not exist fails; the epoch must not be
	// recorded as saved, so a retry against a fixed directory would write.
	ck := storage.NewDurableCheckpointer(filepath.Join(t.TempDir(), "missing"), "g", nil)
	if wrote, err := ck.Save(fig1.Graph(), 1); err == nil || wrote {
		t.Fatalf("save into missing dir: wrote=%v err=%v, want error", wrote, err)
	}
}
