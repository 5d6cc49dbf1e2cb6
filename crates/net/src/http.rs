//! The HTTP layer of the simulation: status codes, redirects, HSTS.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::html;

/// A simulated HTTP response.
///
/// A page keeps its title and links and renders its HTML only when
/// [`Self::body`] is read: the scanner never reads a body, and a clone
/// (one per host side, one per fetch) shares the page.
#[derive(Clone)]
pub struct HttpResponse {
    /// Status code (200, 301, 404, 500, …).
    pub status: u16,
    /// `Location` header for redirects.
    pub location: Option<String>,
    /// `Strict-Transport-Security` header value, if sent: the one
    /// policy [`Self::with_hsts`] sets, shared rather than copied.
    pub hsts: Option<&'static str>,
    body: Body,
}

/// A response body: fixed markup, or a page rendered when read.
#[derive(Clone)]
enum Body {
    Text(&'static str),
    Page(Arc<Page>),
}

/// What [`html::render_page`] renders a page from.
struct Page {
    title: String,
    links: Vec<String>,
}

impl HttpResponse {
    /// A 200 page with a title and links, rendered by
    /// [`html::render_page`] when its body is read.
    pub fn page(title: impl Into<String>, links: &[String]) -> Self {
        HttpResponse {
            status: 200,
            location: None,
            hsts: None,
            body: Body::Page(Arc::new(Page {
                title: title.into(),
                links: links.to_vec(),
            })),
        }
    }

    /// The response body (HTML).
    pub fn body(&self) -> Cow<'static, str> {
        match &self.body {
            Body::Text(text) => Cow::Borrowed(text),
            Body::Page(page) => Cow::Owned(html::render_page(&page.title, &page.links)),
        }
    }

    /// A 301 redirect to `location`.
    pub fn redirect(location: impl Into<String>) -> Self {
        HttpResponse {
            status: 301,
            location: Some(location.into()),
            hsts: None,
            body: Body::Text(""),
        }
    }

    /// A 404.
    pub fn not_found() -> Self {
        HttpResponse {
            status: 404,
            location: None,
            hsts: None,
            body: Body::Text("<html><body><h1>404 Not Found</h1></body></html>"),
        }
    }

    /// A 500.
    pub fn server_error() -> Self {
        HttpResponse {
            status: 500,
            location: None,
            hsts: None,
            body: Body::Text("<html><body><h1>500 Internal Server Error</h1></body></html>"),
        }
    }

    /// Attach an HSTS header (max-age one year, includeSubDomains).
    pub fn with_hsts(mut self) -> Self {
        self.hsts = Some("max-age=31536000; includeSubDomains");
        self
    }

    /// Is this a success?
    pub fn is_ok(&self) -> bool {
        self.status == 200
    }

    /// Is this a redirect with a Location?
    pub fn is_redirect(&self) -> bool {
        (300..400).contains(&self.status) && self.location.is_some()
    }
}

/// The derived form, with the rendered body as the `body` field: world
/// digests hash this text.
impl fmt::Debug for HttpResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpResponse")
            .field("status", &self.status)
            .field("location", &self.location)
            .field("hsts", &self.hsts)
            .field("body", &self.body())
            .finish()
    }
}

/// Responses are equal when their headers and rendered bodies are.
impl PartialEq for HttpResponse {
    fn eq(&self, other: &Self) -> bool {
        self.status == other.status
            && self.location == other.location
            && self.hsts == other.hsts
            && self.body() == other.body()
    }
}

impl Eq for HttpResponse {}

/// What an HTTP(S) fetch observed end to end, transport included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpOutcome {
    /// A response arrived.
    Response(HttpResponse),
    /// DNS failed (NXDOMAIN).
    DnsFailure,
    /// DNS timed out.
    DnsTimeout,
    /// TCP connect failed.
    ConnectFailed(crate::tcp::TcpOutcome),
    /// TLS handshake failed (https fetches only).
    TlsFailure(crate::tls::TlsError),
}

impl HttpOutcome {
    /// The response, when one arrived.
    pub fn response(&self) -> Option<&HttpResponse> {
        match self {
            HttpOutcome::Response(r) => Some(r),
            _ => None,
        }
    }

    /// Did the fetch produce a 200?
    pub fn is_ok_200(&self) -> bool {
        self.response().is_some_and(|r| r.is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_response_contains_links() {
        let r = HttpResponse::page("City of Testville", &["https://county.gov".to_string()]);
        assert!(r.is_ok());
        assert!(r.body().contains("https://county.gov"));
        assert!(!r.is_redirect());
    }

    #[test]
    fn page_body_is_the_rendered_page() {
        let links = [
            "https://county.gov".to_string(),
            "http://a.gov.br/x".to_string(),
        ];
        let title = "Official portal — <x> & \"y\"";
        let r = HttpResponse::page(title, &links);
        let rendered = html::render_page(title, &links);
        assert_eq!(r.body(), rendered);
        assert_eq!(r.clone().with_hsts().body(), rendered);
        // `Debug` prints the rendered body in the derived form.
        assert_eq!(
            format!("{r:?}"),
            format!(
                "HttpResponse {{ status: 200, location: None, hsts: None, body: {rendered:?} }}"
            )
        );
        assert_eq!(
            format!("{:?}", HttpResponse::redirect("https://a.gov/")),
            "HttpResponse { status: 301, location: Some(\"https://a.gov/\"), hsts: None, body: \"\" }"
        );
        assert_eq!(r, HttpResponse::page(title.to_string(), &links));
        assert_ne!(r, HttpResponse::page("other", &links));
    }

    #[test]
    fn redirect_shape() {
        let r = HttpResponse::redirect("https://www.example.gov/");
        assert!(r.is_redirect());
        assert_eq!(r.status, 301);
        assert_eq!(r.location.as_deref(), Some("https://www.example.gov/"));
        assert!(!r.is_ok());
    }

    #[test]
    fn hsts_header() {
        let r = HttpResponse::page("T", &[]).with_hsts();
        assert!(r.hsts.unwrap().contains("max-age=31536000"));
    }

    #[test]
    fn outcome_helpers() {
        assert!(HttpOutcome::Response(HttpResponse::page("T", &[])).is_ok_200());
        assert!(!HttpOutcome::Response(HttpResponse::not_found()).is_ok_200());
        assert!(!HttpOutcome::DnsFailure.is_ok_200());
        assert!(HttpOutcome::DnsFailure.response().is_none());
        assert!(!HttpOutcome::Response(HttpResponse::server_error()).is_ok_200());
    }
}
