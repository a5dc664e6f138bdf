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

// BenchmarkInsertEvict2Way is BenchmarkInsertEvict on a 2-way cache of
// the same size, 128 sets of 2 lines, as ext-assoc runs it: each op
// evicts the LRU line of the new line's set.
func BenchmarkInsertEvict2Way(b *testing.B) {
	const lines = 256
	c, err := NewSetAssoc(lines, 2, LRU)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		c.Insert(64+uint64(i), Shared, Clock(i), Clock(i))
	}
}
