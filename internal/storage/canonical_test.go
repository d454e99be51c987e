package storage_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"github.com/uta-db/previewtables/internal/fig1"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/graph"
	"github.com/uta-db/previewtables/internal/storage"
)

// rawSnapshot assembles snapshot bytes by hand, so a test can write what
// Write never would.
type rawSnapshot struct{ b []byte }

func newRaw() *rawSnapshot { return &rawSnapshot{b: []byte("EGPT\x01")} }

func (r *rawSnapshot) uvarint(vs ...uint64) *rawSnapshot {
	for _, v := range vs {
		r.b = binary.AppendUvarint(r.b, v)
	}
	return r
}

func (r *rawSnapshot) str(ss ...string) *rawSnapshot {
	for _, s := range ss {
		r.uvarint(uint64(len(s)))
		r.b = append(r.b, s...)
	}
	return r
}

// sealed appends the CRC-32C trailer Write computes.
func (r *rawSnapshot) sealed() []byte {
	return binary.BigEndian.AppendUint32(append([]byte(nil), r.b...),
		crc32.Checksum(r.b, crc32.MakeTable(crc32.Castagnoli)))
}

// hostileCounts are truncated snapshots, each declaring one table at the
// largest count Read accepts and then ending.
func hostileCounts() map[string][]byte {
	return map[string][]byte{
		"types":         newRaw().uvarint(1 << 24).b,
		"relationships": newRaw().uvarint(1).str("a").uvarint(1 << 24).b,
		"entities":      newRaw().uvarint(1).str("a").uvarint(0, 1<<31).b,
		"edges":         newRaw().uvarint(1).str("a").uvarint(0, 0, 1<<31).b,
	}
}

// TestReadHostileCounts: a header count pre-sizes nothing the input does
// not back with bytes. Each table's count at its largest accepted value,
// then EOF, must fail as ErrCorrupt after allocating well under what the
// count would take.
func TestReadHostileCounts(t *testing.T) {
	const budget = 16 << 20
	for name, data := range hostileCounts() {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := storage.Read(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= budget {
				t.Errorf("Read allocated %d bytes, want < %d", grew, budget)
			}
		})
	}
}

// TestReadRejectsBadVarints: a varint in a longer encoding than Write's,
// and one that overflows 64 bits in its tenth byte, are ErrCorrupt
// wherever they sit: inside the decoder's buffer, with a whole varint's
// worth of bytes after them, which decodes in one call, and across the
// end of its first 64 KiB, which decodes byte by byte around a refill.
// Each is the relationship count, after a type table of one name whose
// length places it.
func TestReadRejectsBadVarints(t *testing.T) {
	const buffer = 64 << 10 // the decoder's read buffer
	bad := map[string]struct {
		enc  []byte
		want string
	}{
		"non-minimal": {[]byte{0x81, 0x00}, "non-minimal varint"},
		"overflow":    {append(bytes.Repeat([]byte{0xff}, 9), 0x02), "varint overflows 64 bits"},
	}
	// The varint starts after magic, version, the type count and the
	// name: 9 bytes plus the name for a name of 16 KiB or more.
	places := map[string]string{
		"inside the buffer": "a",
		"across the refill": strings.Repeat("a", buffer-9-1),
	}
	for name, v := range bad {
		for place, typeName := range places {
			r := newRaw().uvarint(1).str(typeName)
			data := append(append(r.b, v.enc...), make([]byte, 16)...)
			_, err := storage.Read(bytes.NewReader(data))
			if !errors.Is(err, storage.ErrCorrupt) || !strings.Contains(err.Error(), v.want) {
				t.Errorf("%s %s: err = %v, want ErrCorrupt naming %q", name, place, err, v.want)
			}
		}
	}
}

// TestReadRejectsNonCanonical: Write only ever serializes a built graph,
// so Read rejects, as ErrCorrupt, every CRC-valid snapshot outside the
// canonical form instead of normalizing it: re-encoding would change the
// bytes.
func TestReadRejectsNonCanonical(t *testing.T) {
	// Two types, relationship r from a to b, entity x of type a and y of
	// type b, one edge x -r-> y; each case varies one part.
	types := func(r *rawSnapshot) *rawSnapshot { return r.uvarint(2).str("a", "b") }
	rel := func(r *rawSnapshot) *rawSnapshot { return r.uvarint(1).str("r").uvarint(0, 1) }
	ents := func(r *rawSnapshot) *rawSnapshot { return r.uvarint(2).str("x").uvarint(1, 0).str("y").uvarint(1, 1) }
	edge := func(r *rawSnapshot) *rawSnapshot { return r.uvarint(1, 0, 0, 1) }

	valid := edge(ents(rel(types(newRaw())))).sealed()
	if _, err := storage.Read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the canonical control snapshot: %v", err)
	}
	cases := map[string][]byte{
		"duplicate type name": edge(ents(rel(newRaw().uvarint(3).str("a", "b", "a")))).sealed(),
		"duplicate relationship key": edge(ents(
			types(newRaw()).uvarint(2).str("r").uvarint(0, 1).str("r").uvarint(0, 1))).sealed(),
		"duplicate entity name": edge(rel(types(newRaw())).uvarint(3).
			str("x").uvarint(1, 0).str("y").uvarint(1, 1).str("x").uvarint(1, 0)).sealed(),
		"empty type list": edge(rel(types(newRaw())).uvarint(3).
			str("x").uvarint(1, 0).str("y").uvarint(1, 1).str("z").uvarint(0)).sealed(),
		"type list out of order": edge(rel(types(newRaw())).uvarint(2).
			str("x").uvarint(2, 1, 0).str("y").uvarint(1, 1)).sealed(),
		"type list repeats a type": edge(rel(types(newRaw())).uvarint(2).
			str("x").uvarint(2, 0, 0).str("y").uvarint(1, 1)).sealed(),
		"edge source lacks the relationship's type": edge(rel(types(newRaw())).uvarint(2).
			str("x").uvarint(1, 1).str("y").uvarint(1, 1)).sealed(),
		"edge target lacks the relationship's type": edge(rel(types(newRaw())).uvarint(2).
			str("x").uvarint(1, 0).str("y").uvarint(1, 0)).sealed(),
	}
	// A varint in a longer encoding than Write's: the type count 2 as
	// 0x82 0x00.
	long := newRaw()
	long.b = append(long.b, 0x82, 0x00)
	cases["non-minimal varint"] = edge(ents(rel(long.str("a", "b")))).sealed()

	for name, data := range cases {
		_, err := storage.Read(bytes.NewReader(data))
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		t.Logf("%s: %v", name, err)
	}
}

// TestRoundTripByteIdentical: Write of a loaded snapshot reproduces the
// file byte for byte, on Fig. 1, the default-scale domains, the
// 100k-entity music graph the benchmarks load, and a graph whose names
// straddle, fill and outgrow the decoder's 64 KiB name chunks.
func TestRoundTripByteIdentical(t *testing.T) {
	graphs := map[string]*graph.EntityGraph{"fig1": fig1.Graph(), "long names": longNames(t)}
	for _, d := range []string{"books", "film", "people", "tv"} {
		g, err := freebase.Generate(d, freebase.DefaultGenOptions())
		if err != nil {
			t.Fatal(err)
		}
		graphs[d] = g
	}
	music, err := freebase.Generate("music", freebase.GenOptions{TargetEntities: 100_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	graphs["music-100k"] = music
	for name, g := range graphs {
		var file, again bytes.Buffer
		if err := storage.Write(&file, g); err != nil {
			t.Fatal(err)
		}
		loaded, err := storage.Read(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := storage.Write(&again, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file.Bytes(), again.Bytes()) {
			t.Errorf("%s: re-encoding the loaded snapshot changed its bytes", name)
		}
	}
}

// longNames is a graph whose entity names, between short ones, are 0, 1
// and 2^16-1 to 2^17+1 bytes long, each a distinct byte repeated.
func longNames(t *testing.T) *graph.EntityGraph {
	const chunk = 64 << 10 // the decoder's name chunk
	var b graph.Builder
	typ := b.Type(strings.Repeat("t", chunk))
	rel := b.RelType("r", typ, typ)
	prev := b.Entity("", typ)
	for i, n := range []int{1, chunk - 1, chunk, chunk + 1, 2*chunk + 1, 3} {
		short := b.Entity(strings.Repeat("s", i+1), typ)
		long := b.Entity(strings.Repeat(string(rune('a'+i)), n), typ)
		b.Edge(prev, short, rel)
		b.Edge(short, long, rel)
		prev = long
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rawEncoding is g's snapshot assembled record by record with
// rawSnapshot: the bytes Write must produce, however it chunks them.
func rawEncoding(g *graph.EntityGraph) []byte {
	r := newRaw().uvarint(uint64(g.NumTypes()))
	for i := 0; i < g.NumTypes(); i++ {
		r.str(g.TypeName(graph.TypeID(i)))
	}
	r.uvarint(uint64(g.NumRelTypes()))
	for i := 0; i < g.NumRelTypes(); i++ {
		rt := g.RelType(graph.RelTypeID(i))
		r.str(rt.Name).uvarint(uint64(rt.From), uint64(rt.To))
	}
	r.uvarint(uint64(g.NumEntities()))
	for i := 0; i < g.NumEntities(); i++ {
		ent := g.Entity(graph.EntityID(i))
		r.str(ent.Name).uvarint(uint64(len(ent.Types)))
		for _, t := range ent.Types {
			r.uvarint(uint64(t))
		}
	}
	r.uvarint(uint64(g.NumEdges()))
	for i := 0; i < g.NumEdges(); i++ {
		ed := g.Edge(graph.EdgeID(i))
		r.uvarint(uint64(ed.From), uint64(ed.Rel), uint64(ed.To))
	}
	return r.sealed()
}

var errWriterFull = errors.New("writer full")

// failAfter is a writer that takes n bytes and then fails: the Write that
// would pass n takes what fits and returns errWriterFull. ends records
// where each Write call that succeeded left off.
type failAfter struct {
	n    int
	got  []byte
	ends []int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if room := w.n - len(w.got); len(p) > room {
		w.got = append(w.got, p[:room]...)
		return room, errWriterFull
	}
	w.got = append(w.got, p...)
	w.ends = append(w.ends, len(w.got))
	return len(p), nil
}

// TestWriteChunks: Write hands its writer the record-by-record encoding
// of the long-names graph, whose names straddle and outgrow its 64 KiB
// chunk, and of the film domain, over many chunks. A writer that fails
// after n bytes, for n at 0, at each chunk edge and one byte either side
// of it, and inside the trailing checksum, makes Write return the
// writer's error, and no byte past n was written.
func TestWriteChunks(t *testing.T) {
	film, err := freebase.Generate("film", freebase.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.EntityGraph{"long names": longNames(t), "film": film} {
		want := rawEncoding(g)
		all := &failAfter{n: len(want) + 1}
		if err := storage.Write(all, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(all.got, want) {
			t.Fatalf("%s: Write differs from the record-by-record encoding", name)
		}
		if len(all.ends) < 3 {
			t.Fatalf("%s: %d Write calls, want the snapshot in several chunks", name, len(all.ends))
		}
		cuts := []int{0, len(want) - 2}
		for _, end := range all.ends {
			cuts = append(cuts, end-1, end, end+1)
		}
		for _, n := range cuts {
			if n >= len(want) {
				continue
			}
			w := &failAfter{n: n}
			if err := storage.Write(w, g); !errors.Is(err, errWriterFull) {
				t.Errorf("%s: writer failing after %d of %d bytes: Write returned %v, want its error", name, n, len(want), err)
			}
			if !bytes.Equal(w.got, want[:n]) {
				t.Errorf("%s: writer failing after %d bytes was handed %d bytes that are not the snapshot's first", name, n, len(w.got))
			}
		}
	}
}
