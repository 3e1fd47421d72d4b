// Package tenant is the ctxhttp golden corpus for the tenant registry:
// its directory name matches a context-obligated package, so the
// banned constructors are flagged here too.
package tenant

import (
	"context"
	"net/http"
)

// rotate is the blessed shape: an HTTP call threads its caller's
// context into the request.
func rotate(ctx context.Context, c *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

func bad(c *http.Client, url string) {
	http.Get(url)                        // want `http.Get is context-free`
	http.PostForm(url, nil)              // want `http.PostForm is context-free`
	http.Head(url)                       // want `http.Head is context-free`
	http.NewRequest("DELETE", url, nil)  // want `http.NewRequest is context-free`
	c.Post(url, "application/json", nil) // want `\(\*http.Client\).Post builds a context-free request`
}
