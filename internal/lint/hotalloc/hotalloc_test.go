package hotalloc_test

import (
	"testing"

	"thermctl/internal/lint/hotalloc"
	"thermctl/internal/lint/linttest"
)

func TestHotalloc(t *testing.T) {
	linttest.Run(t, "testdata/ha", hotalloc.Analyzer)
}
