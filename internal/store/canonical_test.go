// Differential tests for the canonical key encoder. They live in an
// external test package so one check can cover the store's shard index
// and the fleet's ring placement, which imports the store.
package store_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/store"
)

// The reference forms below are the string-key formulas the canonical
// encoder replaced: fmt.Sprintf over strings.Replacer-escaped fields for
// the key, and hash/fnv's 32-bit FNV-1a for the store shard. Ring
// placement is checked against Ring.Owners over the reference string.
// Placement, digests and stored data are only unchanged if the
// allocation-free paths agree with them byte for byte.

var refKeyEscaper = strings.NewReplacer(`\`, `\\`, `|`, `\|`)

func refCanonical(k arcs.HistoryKey) string {
	esc := func(s string) string {
		if !strings.ContainsAny(s, `|\`) {
			return s
		}
		return refKeyEscaper.Replace(s)
	}
	return fmt.Sprintf("%s|%s|%g|%s", esc(k.App), esc(k.Workload), k.CapW, esc(k.Region))
}

func refShard(ck string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(ck))
	return int(h.Sum32() % store.NumShards)
}

func canonicalTestRing(t testing.TB) *fleet.Ring {
	t.Helper()
	r, err := fleet.NewRing([]string{"http://a:1809", "http://b:1809", "http://c:1809", "http://d:1809", "http://e:1809"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkCanonical compares every derived form of k against the reference.
func checkCanonical(t *testing.T, r *fleet.Ring, k arcs.HistoryKey) {
	t.Helper()
	want := refCanonical(k)
	if got := k.AppendCanonical(nil); string(got) != want {
		t.Fatalf("AppendCanonical(%#v) = %q, want %q", k, got, want)
	}
	// Appending must not disturb a non-empty prefix.
	if got := k.AppendCanonical([]byte("pre")); string(got) != "pre"+want {
		t.Fatalf("AppendCanonical with prefix = %q, want %q", got, "pre"+want)
	}
	if got := k.String(); got != want {
		t.Fatalf("String(%#v) = %q, want %q", k, got, want)
	}
	if got, w := store.ShardIndex(k), refShard(want); got != w {
		t.Fatalf("ShardIndex(%q) = %d, want %d", want, got, w)
	}
	for n := 1; n <= 3; n++ {
		got, w := r.KeyOwners(k, n, nil), r.Owners(want, n, nil)
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("KeyOwners(%q, %d) = %v, want %v", want, n, got, w)
		}
	}
}

// randKeyField draws a field from an alphabet rich in the escape
// characters, including the empty field and multi-byte runes.
func randKeyField(rng *rand.Rand) string {
	const alphabet = `ab|\\|x_-.é0`
	runes := []rune(alphabet)
	n := rng.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(runes[rng.Intn(len(runes))])
	}
	return b.String()
}

var edgeCaps = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3, math.MaxFloat64,
	1e21, 1e20, 1e-7, 1e-5, 1e-4, 70, 72.5, 0.1, -115, 123456789012345678,
}

// TestCanonicalKeyMatchesReference is the differential test: for seeded
// random keys (escape characters, empty fields, -0, ±Inf, NaN,
// subnormal, 1e21 and 1e-7 caps), the encoder, the shard index and the
// ring owners must equal the reference formulas.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	r := canonicalTestRing(t)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		k := arcs.HistoryKey{App: randKeyField(rng), Workload: randKeyField(rng), Region: randKeyField(rng)}
		switch i % 3 {
		case 0:
			k.CapW = edgeCaps[rng.Intn(len(edgeCaps))]
		case 1:
			k.CapW = math.Float64frombits(rng.Uint64())
		default:
			k.CapW = float64(rng.Intn(2000)) / 8
		}
		checkCanonical(t, r, k)
	}
	// A key longer than the stack buffer spills to the heap but must
	// place identically.
	long := strings.Repeat(`|\x`, arcs.CanonicalKeyLen)
	checkCanonical(t, r, arcs.HistoryKey{App: long, Workload: long, CapW: 60, Region: long})
}

// TestSignedZeroCapsAreDistinctKeys pins a decision: -0 and +0 caps
// render as "-0" and "0", so they are two keys in the store, as they
// were under the string form. (NaN and ±Inf caps never reach the store:
// Save, Merge and replay reject them.)
func TestSignedZeroCapsAreDistinctKeys(t *testing.T) {
	pos := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 0, Region: "r"}
	neg := pos
	neg.CapW = math.Copysign(0, -1)
	if bytes.Equal(pos.AppendCanonical(nil), neg.AppendCanonical(nil)) {
		t.Fatalf("-0 and +0 caps encode identically as %q", pos.String())
	}
	if got := neg.String(); got != "SP|B|-0|r" {
		t.Fatalf("-0 cap key = %q, want SP|B|-0|r", got)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Save(pos, arcs.ConfigValues{Threads: 1}, 1)
	st.Save(neg, arcs.ConfigValues{Threads: 2}, 1)
	if st.Len() != 2 {
		t.Fatalf("store holds %d entries for -0 and +0 caps, want 2", st.Len())
	}
	if e, ok := st.Get(neg); !ok || e.Cfg.Threads != 2 {
		t.Fatalf("Get(-0 cap) = %+v %v, want the -0 entry", e, ok)
	}
}

// FuzzCanonicalKey runs the differential check on fuzzer-chosen keys.
func FuzzCanonicalKey(f *testing.F) {
	for _, c := range edgeCaps {
		f.Add("SP", "B", c, "x_solve")
	}
	f.Add(`a|b`, `c\`, 70.0, "")
	f.Add("", "", 0.0, `\|`)
	f.Add(strings.Repeat("|", 200), "w", 1e-7, "é")
	r := canonicalTestRing(f)
	f.Fuzz(func(t *testing.T, app, workload string, capW float64, region string) {
		checkCanonical(t, r, arcs.HistoryKey{App: app, Workload: workload, CapW: capW, Region: region})
	})
}
