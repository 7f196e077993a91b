package vm

import "testing"

func TestSignatureMixOrderSensitive(t *testing.T) {
	var a, b signature
	a = a.mix(1, 1).mix(2, 2)
	b = b.mix(2, 2).mix(1, 1)
	if a == b {
		t.Error("different write orders should (almost surely) differ")
	}
	if a == a.mix(1, 3) {
		t.Error("mixing must change the signature")
	}
}
