package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// naiveMatches is the reference the automaton must reproduce: one
// strings.Contains pass per pattern, exactly what the pre-engine leak
// scanner did.
func naiveMatches(hay string, pats []string) []int {
	var out []int
	for id, p := range pats {
		if strings.Contains(hay, p) {
			out = append(out, id)
		}
	}
	return out
}

func sortedIDs(ms *MatchSet) []int {
	ids := append([]int(nil), ms.IDs()...)
	sort.Ints(ids)
	return ids
}

func assertScan(t *testing.T, a *Automaton, pats []string, hay string) {
	t.Helper()
	ms := a.Scan([]byte(hay))
	defer ms.Release()
	got := sortedIDs(ms)
	want := naiveMatches(hay, pats)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hay %q: automaton found %v, naive found %v", hay, got, want)
	}
	for _, id := range want {
		if !ms.Has(id) {
			t.Fatalf("hay %q: Has(%d) = false for a matched pattern", hay, id)
		}
	}
}

func TestClassicOverlaps(t *testing.T) {
	// The textbook Aho-Corasick set: outputs must surface via suffix
	// links ("she" ends, so "he" must be reported too).
	pats := []string{"he", "she", "his", "hers"}
	a := Compile(pats)
	for _, hay := range []string{"ushers", "she", "h", "", "hishershe", "xyz"} {
		assertScan(t, a, pats, hay)
	}
}

func TestDuplicateAndEmptyPatterns(t *testing.T) {
	ms := Compile(nil).Scan([]byte("anything"))
	if len(ms.IDs()) != 0 {
		t.Fatalf("empty automaton matched %v", ms.IDs())
	}
	ms.Release()

	// Every duplicate reports its own ID; the empty pattern never
	// matches (it would otherwise match everywhere).
	pats := []string{"ab", "", "ab", "b", "ab"}
	ms = Compile(pats).Scan([]byte("xaby"))
	defer ms.Release()
	if got := sortedIDs(ms); !reflect.DeepEqual(got, []int{0, 2, 3, 4}) {
		t.Fatalf("matched %v, want [0 2 3 4]", got)
	}
	if ms.Has(1) {
		t.Fatal("empty pattern matched")
	}
}

func TestRandomSetsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha := "abcdeABCDE0123/_."
	randStr := func(n int) string {
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return sb.String()
	}
	for round := 0; round < 50; round++ {
		pats := make([]string, 1+rng.Intn(40))
		for i := range pats {
			pats[i] = randStr(1 + rng.Intn(6))
		}
		// Embed a known pattern so matches actually occur.
		fill := randStr(40)
		assertScan(t, Compile(pats), pats, fill+pats[rng.Intn(len(pats))]+fill)
	}
}

func TestMatchSetReuse(t *testing.T) {
	a := Compile([]string{"aaa", "bbb"})
	ms := a.Scan([]byte("xxaaaxx"))
	if !ms.Has(0) || ms.Has(1) {
		t.Fatalf("first scan: Has(0)=%v Has(1)=%v", ms.Has(0), ms.Has(1))
	}
	ms.Release()
	ms = a.Scan([]byte("xxbbbxx"))
	defer ms.Release()
	if ms.Has(0) || !ms.Has(1) {
		t.Fatalf("pooled MatchSet kept stale state: Has(0)=%v Has(1)=%v", ms.Has(0), ms.Has(1))
	}
	if ms.Has(-1) || ms.Has(99) {
		t.Fatal("out-of-range Has must be false")
	}
}

func TestBinaryPatterns(t *testing.T) {
	// Byte-exact matching: NUL bytes, high bytes, no UTF-8 assumptions.
	pats := []string{"\x00\x01", "\xff\xfe\xff", "a\x00b"}
	a := Compile(pats)
	for _, hay := range []string{"\x00\x01", "x\xff\xfe\xffy", "a\x00b", "\xff\xfe", "ab"} {
		assertScan(t, a, pats, hay)
	}
}

func TestCaseSensitivity(t *testing.T) {
	a := Compile([]string{"Needle"})
	ms := a.Scan([]byte("a needle in a haystack"))
	if len(ms.IDs()) != 0 {
		t.Fatal("case-sensitive engine matched a lowercase haystack")
	}
	ms.Release()
	ms = a.Scan([]byte("a Needle in a haystack"))
	defer ms.Release()
	if !ms.Has(0) {
		t.Fatal("exact-case needle missed")
	}
}

func TestConcurrentScan(t *testing.T) {
	// One compiled automaton scanned from many goroutines: every scan
	// must see exactly its own haystack's matches (run under -race).
	pats := make([]string, 200)
	for i := range pats {
		pats[i] = fmt.Sprintf("needle-%d|", i)
	}
	a := Compile(pats)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := (g*200 + i) % len(pats)
				hay := []byte("xx " + pats[id] + " yy needle-x| zz")
				ms := a.Scan(hay)
				if got := ms.IDs(); len(got) != 1 || got[0] != id {
					errs <- fmt.Sprintf("goroutine %d scan %d: matched %v, want [%d]", g, i, got, id)
				}
				ms.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestDictFoldLookup(t *testing.T) {
	d := NewDict(true)
	d.Add("device_type", 0)
	d.Add("DevType", 0)
	d.Add("devtype", 3) // second payload on the same folded word
	if got := d.Lookup("DEVICE_TYPE"); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Lookup(DEVICE_TYPE) = %v", got)
	}
	if got := d.Lookup("devtype"); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("Lookup(devtype) = %v", got)
	}
	if got := d.Lookup("unknown"); got != nil {
		t.Fatalf("Lookup(unknown) = %v", got)
	}
	long := strings.Repeat("A", 100) + "devtype"
	if got := d.Lookup(long); got != nil {
		t.Fatalf("long lookup = %v", got)
	}
	d.Add(long, 9)
	if got := d.Lookup(strings.Repeat("a", 100) + "DEVTYPE"); !reflect.DeepEqual(got, []int{9}) {
		t.Fatalf("folded long lookup = %v", got)
	}
}

func TestDictNoFold(t *testing.T) {
	d := NewDict(false)
	d.Add("Key", 1)
	if d.Lookup("key") != nil {
		t.Fatal("unfolded dict matched different case")
	}
	if got := d.Lookup("Key"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Lookup(Key) = %v", got)
	}
}

func TestLookupDoesNotAllocateForFoldedKeys(t *testing.T) {
	d := NewDict(true)
	d.Add("uuid", 0)
	allocs := testing.AllocsPerRun(100, func() {
		d.Lookup("uuid")
		d.Lookup("UUID")
	})
	if allocs > 0 {
		t.Fatalf("Lookup allocated %.1f times per run", allocs)
	}
}

// BenchmarkScanScalingPatterns shows the single-pass property: scan
// cost over a fixed haystack must stay roughly flat as the pattern
// population grows 64×.
func BenchmarkScanScalingPatterns(b *testing.B) {
	hay := []byte(strings.Repeat("GET /path?q=percent%20encoded&id=deadbeefcafebabe ", 40))
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("patterns=%d", n), func(b *testing.B) {
			pats := make([]string, n)
			for i := range pats {
				pats[i] = fmt.Sprintf("https://site-%04d.example/landing?visit=%d", i, i)
			}
			a := Compile(pats)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Scan(hay).Release()
			}
		})
	}
}
