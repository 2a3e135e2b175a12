package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"4096", 4096},
		{"0", 0},
		{"1KiB", 1 << 10},
		{"64MiB", 64 << 20},
		{"1GiB", 1 << 30},
		{"2gib", 2 << 30},    // case-insensitive
		{"16 MiB", 16 << 20}, // inner whitespace tolerated
		{" 512 ", 512},       // surrounding whitespace
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if err != nil {
			t.Errorf("parseSize(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "12XB", "MiB", "1.5GiB"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) did not fail", bad)
		}
	}
}

// TestFlagsMatchREADME: every flag the binary registers has a row in
// README.md's flag table and every row names a registered flag, so the
// documented surface cannot drift from the real one.
func TestFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)").FindAllSubmatch(readme, -1) {
		documented[string(m[1])] = true
	}
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the test binary's own flags
		}
		if !documented[f.Name] {
			t.Errorf("flag -%s has no row in README.md's flag table", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("README.md documents -%s, which reflex-server does not register", name)
	}
}
