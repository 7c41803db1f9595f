package main

import (
	"math"

	"pooldcs/internal/event"
)

// digest is an order-independent fingerprint of a multiset of events: its
// size and two sums of per-event hashes. Two answers with equal digests
// hold the same events; a missing, extra or duplicated event changes it.
type digest struct {
	n      int
	s1, s2 uint64
}

func (d *digest) add(e event.Event) {
	k := eventKey(e)
	d.n++
	d.s1 += k
	d.s2 += splitmix(k ^ 0x9e3779b97f4a7c15)
}

// eventKey identifies an event by its sequence number and its values, so
// events of two generators that reuse sequence numbers stay distinct.
func eventKey(e event.Event) uint64 {
	h := splitmix(e.Seq)
	for _, v := range e.Values {
		h = splitmix(h ^ math.Float64bits(v))
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func digestOf(events []event.Event) digest {
	var d digest
	for _, e := range events {
		d.add(e)
	}
	return d
}

// oracleDigest scans every stored event for the query's matches: the
// brute-force answer.
func oracleDigest(q event.Query, stored []event.Event) digest {
	var d digest
	for _, e := range stored {
		if q.Matches(e) {
			d.add(e)
		}
	}
	return d
}

func keysOf(events []event.Event) []uint64 {
	keys := make([]uint64, len(events))
	for i, e := range events {
		keys[i] = eventKey(e)
	}
	return keys
}

// matchKeys is the brute-force answer: the keys of every event in the
// given sets that matches the query.
func matchKeys(q event.Query, sets ...[]event.Event) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, set := range sets {
		for _, e := range set {
			if q.Matches(e) {
				out[eventKey(e)] = true
			}
		}
	}
	return out
}

// judge compares an answer with the oracle. want holds the matches the
// answer should return; extra holds matches it may also return. It reports
// the share of want returned, and whether the answer holds only members of
// want or extra, each once.
func judge(keys []uint64, want, extra map[uint64]bool) (recall float64, clean bool) {
	seen := make(map[uint64]bool, len(keys))
	hit := 0
	clean = true
	for _, k := range keys {
		if seen[k] || !(want[k] || extra[k]) {
			clean = false
		}
		if want[k] && !seen[k] {
			hit++
		}
		seen[k] = true
	}
	if len(want) == 0 {
		return 1, clean
	}
	return float64(hit) / float64(len(want)), clean
}
