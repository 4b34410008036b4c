package accumulator

import (
	"sync"
	"testing"
)

func TestHashEncoderRangeAndDeterminism(t *testing.T) {
	enc := HashEncoder{Q: 97}
	seen := map[int]bool{}
	for _, e := range []string{"a", "b", "benz", "sedan", "0x1FFYc", ""} {
		v1, err := enc.Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		v2, _ := enc.Encode(e)
		if v1 != v2 {
			t.Fatalf("non-deterministic encoding for %q", e)
		}
		if v1 < 1 || v1 >= 97 {
			t.Fatalf("encoding %d for %q out of [1, 97)", v1, e)
		}
		seen[v1] = true
	}
	if len(seen) < 4 {
		t.Error("suspicious clustering of encodings")
	}
	if _, err := (HashEncoder{Q: 1}).Encode("x"); err == nil {
		t.Error("Q=1 should error")
	}
}

func TestDictEncoderSequentialAndBounded(t *testing.T) {
	d := NewDictEncoder(4) // ids 1..3
	a, _ := d.Encode("alpha")
	b, _ := d.Encode("beta")
	a2, _ := d.Encode("alpha")
	if a != 1 || b != 2 || a2 != 1 {
		t.Fatalf("ids: alpha=%d beta=%d alpha=%d", a, b, a2)
	}
	if _, err := d.Encode("gamma"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Encode("delta"); err == nil {
		t.Error("dictionary overflow not detected")
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

func TestDictEncoderConcurrent(t *testing.T) {
	d := NewDictEncoder(10000)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := d.Encode(string(rune('a' + i%26))); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if d.Len() != 26 {
		t.Errorf("Len = %d, want 26", d.Len())
	}
}
