package knn

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestAsmClearsUpperVectorState scans the assembly kernels: every TEXT
// block that uses Y or Z registers must execute VZEROUPPER before it
// returns, or scalar float code on the same thread slows down sharply.
// The scan is linear, so a VZEROUPPER on another branch does not count.
func TestAsmClearsUpperVectorState(t *testing.T) {
	src, err := os.ReadFile("simd_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	wide := regexp.MustCompile(`\b[YZ]([0-9]|[12][0-9]|3[01])\b`)
	var fn string
	dirty, wideSeen := false, false
	for n, line := range strings.Split(string(src), "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) > 0 && strings.HasSuffix(fields[0], ":") {
			fields = fields[1:] // label
		}
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "TEXT":
			fn, dirty = strings.TrimSuffix(fields[1], ","), false
		case fields[0] == "VZEROUPPER":
			dirty = false
		case fields[0] == "RET":
			if dirty {
				t.Errorf("simd_amd64.s:%d: %s returns without VZEROUPPER after using Y/Z registers", n+1, fn)
			}
		case wide.MatchString(line):
			dirty, wideSeen = true, true
		}
	}
	if !wideSeen {
		t.Fatal("no TEXT block uses Y/Z registers; the scan is not reading the kernel")
	}
}
