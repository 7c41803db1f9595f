package trace

import "testing"

// BenchmarkRingEmit is the flight recorder's rung of the benchmark
// ladder: one Hop record into an enabled ring, while the ring grows
// (chunks allocated on demand; a full ring is replaced by a fresh one)
// and after it wraps (slots overwritten in place).
func BenchmarkRingEmit(b *testing.B) {
	const capacity = 1 << 14
	clock := &fakeClock{}
	b.Run("grow", func(b *testing.B) {
		tr := NewRing(clock, capacity)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr.Len() == capacity {
				tr = NewRing(clock, capacity)
			}
			tr.Hop(i, i+1, "query", 8, 1, false)
		}
	})
	b.Run("wrap", func(b *testing.B) {
		tr := NewRing(clock, capacity)
		for i := 0; i < capacity; i++ {
			tr.Hop(i, i+1, "query", 8, 1, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Hop(i, i+1, "query", 8, 1, false)
		}
	})
}
