// Package cliutil carries the flag-validation helpers shared by the
// sdvsim/sdvexp/sdvtrace/sdvd commands, so every tool rejects nonsense
// values the same way: a one-line error on stderr and a nonzero exit,
// never a silent clamp or a panic deep in the stack.
package cliutil

import (
	"fmt"
	"net"
	"net/url"
	"os"
	"strings"
)

// FlagError reports an invalid flag value with the accepted range.
func FlagError(name string, value any, want string) error {
	return fmt.Errorf("invalid -%s %v: want %s", name, value, want)
}

// ValidateRunFlags checks the run-shape flags common to sdvsim and
// sdvexp, returning the first violation.
func ValidateRunFlags(scale, parallel int) error {
	if scale <= 0 {
		return FlagError("scale", scale, "> 0")
	}
	if parallel < 0 {
		return FlagError("parallel", parallel, ">= 0 (0 = all cores)")
	}
	return nil
}

// ValidateSpecPath checks a -spec flag value before it is parsed as a
// workload-spec file: the path must name an existing, non-empty regular
// file. Content-level problems (bad YAML, empty workload lists,
// duplicate names) are wspec.Parse's job; this catches the pure
// flag-level mistakes with the same one-line shape as the other
// validators.
func ValidateSpecPath(path string) error {
	if path == "" {
		return FlagError("spec", "\"\"", "a workload-spec file path")
	}
	fi, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("invalid -spec %q: no such file", path)
		}
		return fmt.Errorf("invalid -spec %q: %v", path, err)
	}
	if fi.IsDir() {
		return fmt.Errorf("invalid -spec %q: is a directory, want a YAML/JSON spec file", path)
	}
	if fi.Size() == 0 {
		return fmt.Errorf("invalid -spec %q: file is empty", path)
	}
	return nil
}

// SplitSpecPaths expands a comma-separated -spec value and validates
// each path.
func SplitSpecPaths(arg string) ([]string, error) {
	var out []string
	for _, p := range strings.Split(arg, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if err := ValidateSpecPath(p); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, FlagError("spec", fmt.Sprintf("%q", arg), "one or more workload-spec file paths")
	}
	return out, nil
}

// ValidateServerURL checks a flag naming a server base URL (sdvexp
// -server): it must parse as an absolute http(s) URL with a host and no
// trailing junk that appending an API path would silently mangle.
func ValidateServerURL(name, raw string) error {
	if raw == "" {
		return FlagError(name, "\"\"", "an http(s) base URL")
	}
	u, err := url.Parse(raw)
	if err != nil {
		return FlagError(name, fmt.Sprintf("%q", raw), "an absolute http(s) URL")
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return FlagError(name, fmt.Sprintf("%q", raw), "an absolute http(s) URL")
	}
	if u.Host == "" {
		return FlagError(name, fmt.Sprintf("%q", raw), "a URL with a host")
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return FlagError(name, fmt.Sprintf("%q", raw), "a base URL without query or fragment")
	}
	return nil
}

// ValidateListenAddr checks a flag naming a listen address (sdvd
// -pprof): host:port as net.Listen accepts, with a non-empty port.
func ValidateListenAddr(name, addr string) error {
	if addr == "" {
		return FlagError(name, "\"\"", "a host:port listen address")
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("invalid -%s %q: %v", name, addr, err)
	}
	if port == "" {
		return FlagError(name, fmt.Sprintf("%q", addr), "a listen address with a port")
	}
	return nil
}

// Fatal prints "tool: err" to stderr and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}
