package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T, budget int) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{MemBudgetBytes: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// numKeys counts the store's live keys.
func numKeys(s *Store) (int, error) {
	n := 0
	err := s.Scan("", func(string, []byte) bool { n++; return true })
	return n, err
}

func TestPutGet(t *testing.T) {
	s := openTemp(t, 0)
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("a")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q,%v", v, err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) err = %v", err)
	}
	if err := s.Put("", nil); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestOverwrite(t *testing.T) {
	s := openTemp(t, 0)
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.Get("k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get = %q,%v", v, err)
	}
	n, err := numKeys(s)
	if err != nil || n != 1 {
		t.Fatalf("Len = %d,%v", n, err)
	}
}

func TestDelete(t *testing.T) {
	s := openTemp(t, 0)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key err = %v", err)
	}
	if s.Has("k") {
		t.Fatal("Has after delete")
	}
}

func TestDeleteShadowsSegment(t *testing.T) {
	s := openTemp(t, 0)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // k is now in a segment
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // tombstone in newer segment
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone not shadowing segment: %v", err)
	}
}

func TestSpillOnBudget(t *testing.T) {
	s := openTemp(t, 64) // tiny budget forces spills
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("key-%03d", i), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if s.SpillCount() == 0 {
		t.Fatal("no spills under tiny budget")
	}
	if s.memBytes > 64+32 {
		t.Fatalf("memtable footprint %d exceeds budget after spill", s.memBytes)
	}
	for i := 0; i < 50; i++ {
		v, err := s.Get(fmt.Sprintf("key-%03d", i))
		if err != nil || string(v) != "0123456789" {
			t.Fatalf("Get after spill key-%03d = %q,%v", i, v, err)
		}
	}
}

func TestSmallerBudgetMeansMoreSpills(t *testing.T) {
	write := func(budget int) int {
		s, err := Open(t.TempDir(), Options{MemBudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 200; i++ {
			if err := s.Put(fmt.Sprintf("key-%04d", i), []byte("valuevaluevalue")); err != nil {
				t.Fatal(err)
			}
		}
		return s.SpillCount()
	}
	small := write(128)
	large := write(4096)
	if small <= large {
		t.Fatalf("spills(budget=128)=%d must exceed spills(budget=4096)=%d", small, large)
	}
}

func TestScanOrderAndPrefix(t *testing.T) {
	s := openTemp(t, 128) // force some segments
	keys := []string{"b/2", "a/1", "b/1", "c/1", "a/2"}
	for _, k := range keys {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := s.Scan("", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a/1", "a/2", "b/1", "b/2", "c/1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan order = %v, want %v", got, want)
	}
	var bOnly []string
	if err := s.Scan("b/", func(k string, v []byte) bool {
		bOnly = append(bOnly, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(bOnly) != fmt.Sprint([]string{"b/1", "b/2"}) {
		t.Fatalf("prefix scan = %v", bOnly)
	}
	// Early stop.
	var count int
	if err := s.Scan("", func(k string, v []byte) bool {
		count++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("early-stop scan visited %d", count)
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MemBudgetBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("k05"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, err := s2.Get(k)
		if i == 5 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key survived reopen: %q,%v", v, err)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after reopen = %q,%v", k, v, err)
		}
	}
	n, err := numKeys(s2)
	if err != nil || n != 29 {
		t.Fatalf("Len after reopen = %d,%v", n, err)
	}
}

func TestBinaryValues(t *testing.T) {
	s := openTemp(t, 32) // force segment round-trip
	val := make([]byte, 300)
	for i := range val {
		val[i] = byte(i)
	}
	if err := s.Put("bin", val); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(val) {
		t.Fatalf("len = %d, want %d", len(got), len(val))
	}
	for i := range val {
		if got[i] != val[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], val[i])
		}
	}
}

func TestEmptyValue(t *testing.T) {
	s := openTemp(t, 16)
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("empty")
	if err != nil || len(v) != 0 {
		t.Fatalf("empty value round-trip = %q,%v", v, err)
	}
}

// Property: a store with an adversarially tiny budget behaves identically
// to an in-memory map under a random op sequence, including across a
// close/reopen cycle.
func TestStoreMatchesMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		dir := t.TempDir()
		s, err := Open(dir, Options{MemBudgetBytes: 48})
		if err != nil {
			return false
		}
		model := make(map[string]string)
		rng := rand.New(rand.NewSource(42))
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%23)
			switch op % 3 {
			case 0, 1:
				val := fmt.Sprintf("v%d-%d", op, rng.Intn(100))
				if err := s.Put(key, []byte(val)); err != nil {
					return false
				}
				model[key] = val
			case 2:
				if err := s.Delete(key); err != nil {
					return false
				}
				delete(model, key)
			}
		}
		check := func(st *Store) bool {
			for k, want := range model {
				got, err := st.Get(k)
				if err != nil || string(got) != want {
					return false
				}
			}
			n, err := numKeys(st)
			return err == nil && n == len(model)
		}
		if !check(s) {
			return false
		}
		if err := s.Close(); err != nil {
			return false
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			return false
		}
		defer s2.Close()
		return check(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
