GO ?= go

.PHONY: check build vet benchvet staticcheck test race fmt bench

# check is the full gate: formatting, vet (the benchmark module too),
# staticcheck (when installed), build, and the race-enabled test suite.
# CI and pre-commit both run `make check`.
check: fmt vet benchvet staticcheck build race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# benchvet type-checks benchmark/, a nested module that ./... never
# reaches: an API change it depends on fails here, not in the driver.
benchvet:
	cd benchmark && $(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest) and is skipped
# with a notice otherwise, so `make check` works on a bare toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench . -benchtime 1x ./...
