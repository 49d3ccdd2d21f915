// Package match is Panoptes' deterministic multi-pattern matching
// engine: the single-pass core of the capture→analysis hot path. The
// leak detector searches every flow for up to twenty representations
// of its visit (the URL and hostname, each plain, escaped, in two
// Base64 alphabets, hex and three digests); Compile turns such a
// pattern list into an immutable Aho-Corasick automaton, so the flow
// haystack is scanned in one pass regardless of how many patterns it
// carries, with byte-exact (case-sensitive) semantics identical to
// substring search.
//
// The package also provides Dict, an exact-match keyword dictionary
// with optional ASCII case folding, used by internal/pii to dispatch a
// parameter key to its candidate detectors in one hash probe instead
// of one anchored regexp match per detector.
package match

import "sync"

// Automaton is a compiled Aho-Corasick matcher: an immutable goto/fail
// trie in CSR form, safe for concurrent scans. Pattern IDs are indices
// into the list given to Compile.
type Automaton struct {
	rootNext [256]int32 // dense root transitions (fail closure built in)
	lo       []int32    // per-node edge range start; len = nodes+1
	elab     []byte     // edge labels, sorted per node
	etgt     []int32    // edge targets
	fail     []int32
	out      []int32 // lowest pattern ID ending at node, or -1
	dup      []int32 // per pattern ID: next ID with the same text, or -1
	olink    []int32 // nearest terminal proper-suffix node, or 0
	hasOut   []bool  // out >= 0 || olink != 0
}

// Compile builds an automaton over patterns; pattern i has ID i.
// Duplicate patterns each report their own ID; an empty pattern never
// matches.
func Compile(patterns []string) *Automaton {
	// Build the trie with first-child/next-sibling edge lists kept in
	// label order: no per-node allocation, and the CSR flattening below
	// reads each node's edges already sorted. The root, where most
	// fail-link walks end, also gets a dense table from the start.
	var root [256]int32
	size := 1 // upper bound on trie nodes
	for _, p := range patterns {
		size += len(p)
	}
	child := append(make([]int32, 0, size), -1)
	sibling := append(make([]int32, 0, size), -1)
	label := append(make([]byte, 0, size), 0)
	out := append(make([]int32, 0, size), -1)
	dup := make([]int32, len(patterns))
	goTo := func(s int32, c byte) int32 {
		if s == 0 {
			if t := root[c]; t != 0 {
				return t
			}
			return -1
		}
		for e := child[s]; e >= 0 && label[e] <= c; e = sibling[e] {
			if label[e] == c {
				return e
			}
		}
		return -1
	}
	for i, p := range patterns {
		dup[i] = -1
		if p == "" {
			continue
		}
		s := int32(0)
		for j := 0; j < len(p); j++ {
			c := p[j]
			t := goTo(s, c)
			if t < 0 {
				t = int32(len(child))
				child = append(child, -1)
				sibling = append(sibling, -1)
				label = append(label, c)
				out = append(out, -1)
				prev := &child[s]
				for *prev >= 0 && label[*prev] < c {
					prev = &sibling[*prev]
				}
				sibling[t], *prev = *prev, t
				if s == 0 {
					root[c] = t
				}
			}
			s = t
		}
		if out[s] < 0 {
			out[s] = int32(i)
			continue
		}
		last := out[s]
		for dup[last] >= 0 {
			last = dup[last]
		}
		dup[last] = int32(i)
	}

	// BFS fail links, children in byte order so the build is fully
	// deterministic.
	n := len(child)
	fail := make([]int32, n)
	olink := make([]int32, n)
	queue := make([]int32, 0, n)
	for e := child[0]; e >= 0; e = sibling[e] {
		queue = append(queue, e)
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if fu := fail[u]; out[fu] >= 0 {
			olink[u] = fu
		} else {
			olink[u] = olink[fu]
		}
		for v := child[u]; v >= 0; v = sibling[v] {
			c := label[v]
			f := fail[u]
			for {
				if t := goTo(f, c); t >= 0 {
					fail[v] = t
					break
				}
				if f == 0 {
					break
				}
				f = fail[f]
			}
			queue = append(queue, v)
		}
	}

	// Flatten to CSR.
	a := &Automaton{
		rootNext: root,
		lo:       make([]int32, n+1),
		elab:     make([]byte, 0, n-1),
		etgt:     make([]int32, 0, n-1),
		fail:     fail,
		out:      out,
		dup:      dup,
		olink:    olink,
		hasOut:   make([]bool, n),
	}
	for i := 0; i < n; i++ {
		a.lo[i] = int32(len(a.elab))
		for e := child[i]; e >= 0; e = sibling[e] {
			a.elab = append(a.elab, label[e])
			a.etgt = append(a.etgt, e)
		}
		a.hasOut[i] = out[i] >= 0 || olink[i] != 0
	}
	a.lo[n] = int32(len(a.elab))
	return a
}

// step advances the automaton by one byte, following fail links on
// mismatch. Edge lists are sorted, so the linear probe can stop early;
// fanout beyond a handful of edges is rare outside the root, which has
// its own dense table.
func (a *Automaton) step(s int32, c byte) int32 {
	for s != 0 {
		lo, hi := a.lo[s], a.lo[s+1]
		if hi-lo > 8 {
			for lo < hi {
				mid := (lo + hi) / 2
				if a.elab[mid] < c {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < a.lo[s+1] && a.elab[lo] == c {
				return a.etgt[lo]
			}
		} else {
			for i := lo; i < hi; i++ {
				if a.elab[i] == c {
					return a.etgt[i]
				}
				if a.elab[i] > c {
					break
				}
			}
		}
		s = a.fail[s]
	}
	return a.rootNext[c]
}

// Scan walks the haystack once and returns the set of pattern IDs that
// occur in it as substrings. Release the result when done.
func (a *Automaton) Scan(hay []byte) *MatchSet {
	ms := matchSets.Get().(*MatchSet)
	s := int32(0)
	for i := 0; i < len(hay); i++ {
		s = a.step(s, hay[i])
		if !a.hasOut[s] {
			continue
		}
		for t := s; t != 0; t = a.olink[t] {
			for id := a.out[t]; id >= 0; id = a.dup[id] {
				ms.mark(int(id))
			}
		}
	}
	return ms
}

var matchSets = sync.Pool{New: func() any { return new(MatchSet) }}

// MatchSet is the result of one Scan: constant-time membership over
// the matched pattern IDs. Not safe for concurrent use.
type MatchSet struct {
	seen []bool
	hits []int
}

// Has reports whether the pattern with the given ID matched.
func (m *MatchSet) Has(id int) bool {
	return id >= 0 && id < len(m.seen) && m.seen[id]
}

// IDs returns the matched pattern IDs in first-match order. The slice
// is owned by the MatchSet and dies with Release.
func (m *MatchSet) IDs() []int { return m.hits }

// Release resets the set and returns it to the pool.
func (m *MatchSet) Release() {
	for _, id := range m.hits {
		m.seen[id] = false
	}
	m.hits = m.hits[:0]
	matchSets.Put(m)
}

// mark records a matched pattern ID, deduplicating repeats.
func (m *MatchSet) mark(id int) {
	if id >= len(m.seen) {
		grown := make([]bool, id+1)
		copy(grown, m.seen)
		m.seen = grown
	}
	if !m.seen[id] {
		m.seen[id] = true
		m.hits = append(m.hits, id)
	}
}
