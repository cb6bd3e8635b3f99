package correlate

import "skeletonhunter/internal/sim"

// stableBloom is a stable Bloom filter (Deng & Rafiei): saturating
// uint8 cells, K cells set to Max per insert, P pseudo-random cells
// decremented first. Continuous decay gives the filter a bounded
// memory — recently inserted keys read as present, stale keys fade —
// which is exactly the dedup semantic an alarm storm needs: the first
// alarm for a (component, kind) passes, the storm behind it is
// suppressed, and a key quiet long enough is forgotten so a
// recurrence pages again.
//
// The decay RNG is a sim.SplitMix64 stream seeded from the engine config
// and carried in checkpoints, so suppression decisions are
// bit-identical across reruns and across a crash/recover.
type stableBloom struct {
	cells []uint8
	k     int
	p     int
	max   uint8
	rng   sim.SplitMix64
}

func newStableBloom(cells, k, p int, max uint8, seed int64) *stableBloom {
	if cells < 1 {
		cells = 1
	}
	return &stableBloom{
		cells: make([]uint8, cells),
		k:     k,
		p:     p,
		max:   max,
		rng:   sim.SplitMix64(seed),
	}
}

// hash2 derives double-hashing bases from FNV-64a; h2 is forced odd so
// the probe sequence walks distinct cells.
func hash2(key string) (h1, h2 uint64) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h1 = offset
	for i := 0; i < len(key); i++ {
		h1 ^= uint64(key[i])
		h1 *= prime
	}
	h2 = h1*prime ^ offset
	h2 |= 1
	return
}

// seenThenMark reports whether the key currently reads as present,
// then (re)inserts it: decay P cells, saturate the key's K cells.
// Marking after decay keeps a key's own fresh cells from being aged by
// its own insertion.
func (b *stableBloom) seenThenMark(key string) bool {
	h1, h2 := hash2(key)
	n := uint64(len(b.cells))
	seen := true
	for i := 0; i < b.k; i++ {
		if b.cells[(h1+uint64(i)*h2)%n] == 0 {
			seen = false
			break
		}
	}
	for j := 0; j < b.p; j++ {
		idx := b.rng.Next() % n
		if b.cells[idx] > 0 {
			b.cells[idx]--
		}
	}
	for i := 0; i < b.k; i++ {
		b.cells[(h1+uint64(i)*h2)%n] = b.max
	}
	return seen
}
