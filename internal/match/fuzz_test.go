package match

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// FuzzMatchVsNaive is the tentpole's correctness keystone: over
// arbitrary pattern sets and haystacks — including binary garbage —
// the automaton's matched-ID set must equal a naive strings.Contains
// sweep. The input encodes patterns and the haystack in one byte
// stream: 0xFF-separated chunks, first chunk is the haystack, the rest
// are patterns. Duplicate patterns are kept: each must report its own
// ID.
func FuzzMatchVsNaive(f *testing.F) {
	f.Add([]byte("ushers\xffhe\xffshe\xffhis\xffhers"))
	f.Add([]byte("https://a.example/p?q=1\xffa.example\xffhttps://a.example/p?q=1\xff70a1"))
	f.Add([]byte("aaaaaaaa\xffa\xffaa\xffaaa\xffaaaa"))
	f.Add([]byte("\x00\x01\x02\xff\x00\x01\xff\x02"))
	f.Add([]byte("plain body with dGVzdA== inside\xffdGVzdA==\xff74657374"))
	f.Add([]byte("abab\xffab\xffb\xffab"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		chunks := bytes.Split(data, []byte{0xFF})
		hay := chunks[0]
		var pats []string
		for _, c := range chunks[1:] {
			if len(c) == 0 || len(c) > 64 {
				continue
			}
			pats = append(pats, string(c))
			if len(pats) == 32 {
				break
			}
		}

		ms := Compile(pats).Scan(hay)
		defer ms.Release()
		got := append([]int(nil), ms.IDs()...)
		sort.Ints(got)
		var want []int
		for id, p := range pats {
			if strings.Contains(string(hay), p) {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("automaton matched %v, naive matched %v (hay %q, pats %q)", got, want, hay, pats)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("automaton matched %v, naive matched %v (hay %q, pats %q)", got, want, hay, pats)
			}
		}
		for _, id := range want {
			if !ms.Has(id) {
				t.Fatalf("Has(%d) false for matched pattern %q", id, pats[id])
			}
		}
	})
}
