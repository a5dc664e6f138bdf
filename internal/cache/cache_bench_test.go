package cache

import "testing"

// BenchmarkLookupHit measures the line lookup of a hit: an infinite
// cache holding FFT's default 2 MB footprint (32768 lines), probed at a
// stride that visits every line before repeating, so consecutive
// lookups land far apart in the table as a kernel's sweep over its
// rows does. One op is one Lookup.
func BenchmarkLookupHit(b *testing.B) {
	const lines, stride = 1 << 15, 40503 // odd, so the stride covers every line
	c := New(0, LRU)
	for tag := uint64(0); tag < lines; tag++ {
		c.Insert(64+tag, Shared, 0, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(64+uint64(i*stride)%lines, 1) == nil {
			b.Fatal("resident line missed")
		}
	}
}

// BenchmarkInsertEvict measures the miss path of a full finite cache
// (4 KB per processor at cluster size 4: 256 lines): each op evicts the
// LRU line, deleting it from the table, and inserts a new one.
func BenchmarkInsertEvict(b *testing.B) {
	const lines = 256
	c := New(lines, LRU)
	for i := 0; i < b.N; i++ {
		c.Insert(64+uint64(i), Shared, Clock(i), Clock(i))
	}
}
