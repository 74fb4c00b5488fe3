package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// opsGet fetches path from one ops endpoint (host:port or URL) and decodes
// the JSON body into v. A status other than 200 is an error.
func opsGet(client *http.Client, addr, path string, v any) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + path
	resp, err := client.Get(url)
	if err != nil {
		return err // a *url.Error: already names the method and URL
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}
