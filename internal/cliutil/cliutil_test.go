package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagError(t *testing.T) {
	err := FlagError("scale", -3, "> 0")
	if err == nil {
		t.Fatal("nil error")
	}
	for _, want := range []string{"-scale", "-3", "> 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("FlagError message %q missing %q", err, want)
		}
	}
}

func TestValidateRunFlags(t *testing.T) {
	cases := []struct {
		name               string
		scale, par         int
		wantErr            bool
		flagNamedInMessage string
	}{
		{"all valid", 10_000, 0, false, ""},
		{"parallel explicit", 10_000, 4, false, ""},
		{"zero scale", 0, 0, true, "-scale"},
		{"negative scale", -5, 0, true, "-scale"},
		{"negative parallel", 10_000, -1, true, "-parallel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateRunFlags(tc.scale, tc.par)
			if (err != nil) != tc.wantErr {
				t.Fatalf("ValidateRunFlags(%d, %d) = %v, wantErr %v",
					tc.scale, tc.par, err, tc.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), tc.flagNamedInMessage) {
				t.Errorf("error %q does not name %s", err, tc.flagNamedInMessage)
			}
		})
	}
}

// TestValidateRunFlagsFirstViolation pins the reporting order: scale,
// then parallel — so a command line with several bad flags gets a stable
// first diagnostic.
func TestValidateRunFlagsFirstViolation(t *testing.T) {
	err := ValidateRunFlags(0, -1)
	if err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Errorf("want the -scale violation first, got %v", err)
	}
}

func TestValidateSpecPath(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.yaml")
	if err := os.WriteFile(good, []byte("wspec: 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.yaml")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := ValidateSpecPath(good); err != nil {
		t.Errorf("valid file rejected: %v", err)
	}
	cases := []struct {
		name, path, want string
	}{
		{"empty flag", "", "-spec"},
		{"missing file", filepath.Join(dir, "nope.yaml"), "no such file"},
		{"directory", dir, "is a directory"},
		{"empty file", empty, "file is empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateSpecPath(tc.path)
			if err == nil {
				t.Fatalf("ValidateSpecPath(%q) accepted", tc.path)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("multi-line error: %q", err)
			}
		})
	}
}

func TestSplitSpecPaths(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.yaml")
	b := filepath.Join(dir, "b.yaml")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte("wspec: 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := SplitSpecPaths(a + ", " + b + ",")
	if err != nil {
		t.Fatalf("SplitSpecPaths: %v", err)
	}
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("got %v, want [%s %s]", got, a, b)
	}
	if _, err := SplitSpecPaths(",,"); err == nil {
		t.Error("all-empty -spec list accepted")
	}
	if _, err := SplitSpecPaths(a + "," + filepath.Join(dir, "gone.yaml")); err == nil {
		t.Error("list with a missing file accepted")
	}
}

func TestValidateServerURL(t *testing.T) {
	cases := []struct {
		name, raw string
		wantErr   bool
		want      string // substring the error must carry
	}{
		{"plain http", "http://127.0.0.1:8077", false, ""},
		{"https with path", "https://sim.example/api", false, ""},
		{"empty", "", true, "-server"},
		{"no scheme", "127.0.0.1:8077", true, "http(s)"},
		{"wrong scheme", "ftp://host:21", true, "http(s)"},
		{"scheme only", "http://", true, "host"},
		{"query junk", "http://host:1?x=1", true, "query"},
		{"fragment junk", "http://host:1#frag", true, "query or fragment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateServerURL("server", tc.raw)
			if (err != nil) != tc.wantErr {
				t.Fatalf("ValidateServerURL(server, %q) = %v, wantErr %v", tc.raw, err, tc.wantErr)
			}
			if err == nil {
				return
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("multi-line error: %q", err)
			}
		})
	}
}

func TestValidateListenAddr(t *testing.T) {
	for _, good := range []string{"127.0.0.1:6060", ":6060", "[::1]:6060", "localhost:0"} {
		if err := ValidateListenAddr("pprof", good); err != nil {
			t.Errorf("ValidateListenAddr(pprof, %q) = %v, want nil", good, err)
		}
	}
	for _, bad := range []string{"", "127.0.0.1", "host:", "http://host:6060"} {
		err := ValidateListenAddr("pprof", bad)
		if err == nil {
			t.Errorf("ValidateListenAddr(pprof, %q) accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "-pprof") {
			t.Errorf("error %q does not mention -pprof", err)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("multi-line error: %q", err)
		}
	}
}
