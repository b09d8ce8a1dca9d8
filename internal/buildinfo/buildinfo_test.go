package buildinfo

import (
	"strings"
	"testing"
)

func TestReadNeverEmpty(t *testing.T) {
	i := Read()
	if i.Version == "" {
		t.Error("Version empty")
	}
	if !strings.HasPrefix(i.GoVersion, "go") {
		t.Errorf("GoVersion = %q", i.GoVersion)
	}
	if s := i.String(); !strings.Contains(s, i.Version) || !strings.Contains(s, i.GoVersion) {
		t.Errorf("String() = %q does not carry identity", s)
	}
}

func TestStringTruncatesRevision(t *testing.T) {
	i := Info{Version: "v1.2.3", GoVersion: "go1.22.0",
		Revision: "0123456789abcdef0123456789abcdef01234567", Modified: true}
	s := i.String()
	if !strings.Contains(s, "0123456789ab+dirty") {
		t.Errorf("String() = %q, want truncated dirty revision", s)
	}
	if strings.Contains(s, "0123456789abc") {
		t.Errorf("String() = %q, revision not truncated to 12 chars", s)
	}
}
