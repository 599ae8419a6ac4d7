package sortx

import (
	"reflect"
	"testing"
)

func TestKeysSorted(t *testing.T) {
	m := map[string]float64{"b": 2, "a": 1, "z": 26, "m": 13}
	want := []string{"a", "b", "m", "z"}
	for i := 0; i < 10; i++ {
		if got := Keys(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestKeysTypedAndEmpty(t *testing.T) {
	type id string
	m := map[id]bool{"c2": true, "c10": true, "c1": true}
	if got := Keys(m); !reflect.DeepEqual(got, []id{"c1", "c10", "c2"}) {
		t.Fatalf("Keys = %v", got)
	}
	if got := Keys(map[int]int{}); len(got) != 0 {
		t.Fatalf("Keys(empty) = %v", got)
	}
	ints := Keys(map[int]string{3: "c", 1: "a", 2: "b"})
	if !reflect.DeepEqual(ints, []int{1, 2, 3}) {
		t.Fatalf("Keys(int) = %v", ints)
	}
}

func TestIDsStayAscending(t *testing.T) {
	var s IDs[string]
	for n, id := range []string{"c2", "c10", "c1", "c10", "c3"} {
		i, added := s.Insert(id)
		if s[i] != id || added != (n != 3) {
			t.Fatalf("Insert(%s) = %d, %v in %q", id, i, added, s)
		}
	}
	if !reflect.DeepEqual(s, IDs[string]{"c1", "c10", "c2", "c3"}) {
		t.Fatalf("after inserts: %q", s)
	}
	if i, added := s.Insert("c2"); i != 2 || added {
		t.Fatalf("Insert of a present id = %d, %v", i, added)
	}
	if i, ok := s.Find("c10"); i != 1 || !ok {
		t.Fatalf("Find(c10) = %d, %v", i, ok)
	}
	if i, ok := s.Find("c11"); i != 2 || ok {
		t.Fatalf("Find(c11) = %d, %v, want the insertion row 2", i, ok)
	}
	if i, ok := s.Remove("c10"); i != 1 || !ok {
		t.Fatalf("Remove(c10) = %d, %v", i, ok)
	}
	if _, ok := s.Remove("c10"); ok {
		t.Fatal("Remove of an absent id reported a row")
	}
	if !reflect.DeepEqual(s, IDs[string]{"c1", "c2", "c3"}) {
		t.Fatalf("after removes: %q", s)
	}
}
