package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"rshuffle/internal/engine"
)

// tableDigest hashes a table's row count and contents.
func tableDigest(t *engine.Table) string {
	h := sha256.New()
	h.Write([]byte{byte(t.N), byte(t.N >> 8), byte(t.N >> 16), byte(t.N >> 24)})
	h.Write(t.Data)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSyntheticTableDigests pins the generated input tables byte for byte,
// so a change to how tables are built cannot change what they hold.
func TestSyntheticTableDigests(t *testing.T) {
	for _, c := range []struct {
		name string
		tbl  *engine.Table
		want string
	}{
		{"wide16", SyntheticTableWide(1, 10_000, 16), "a0d2bdce5d043cea"},
		{"wide64", SyntheticTableWide(7, 3_000, 64), "b8572f42ca0503a1"},
		{"zipf", SyntheticTableZipf(1, 10_000, 1<<20, 0.5), "93050dc5e0bd6aa2"},
	} {
		if got := tableDigest(c.tbl); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSyntheticTableWideAllocatesOnce checks that a synthetic table is
// built in one rows×width allocation: the allocation count does not grow
// with the row count, and the bytes allocated beyond the rows are a small
// fixed overhead (the table, schema and column headers).
func TestSyntheticTableWideAllocatesOnce(t *testing.T) {
	const rows, width = 1 << 16, 64
	small := testing.AllocsPerRun(5, func() { SyntheticTableWide(1, 1, width) })
	large := testing.AllocsPerRun(5, func() { SyntheticTableWide(1, rows, width) })
	if large != small {
		t.Fatalf("%v allocations for %d rows, %v for 1 row: growth or per-row allocations", large, rows, small)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tbl := SyntheticTableWide(1, rows, width)
	runtime.ReadMemStats(&after)
	if tbl.N != rows || cap(tbl.Data) != rows*width {
		t.Fatalf("table holds %d rows in cap %d, want %d in %d", tbl.N, cap(tbl.Data), rows, rows*width)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(rows*width+1024); got > limit {
		t.Fatalf("allocated %d bytes for a %d-byte table (limit %d)", got, rows*width, limit)
	}
}

func BenchmarkSyntheticTableWide(b *testing.B) {
	const rows, width = 1 << 16, 16
	b.SetBytes(rows * width)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SyntheticTableWide(int64(i), rows, width)
	}
}
