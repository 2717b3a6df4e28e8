//! The load generator's side of the wire. Untraced runs use the library's
//! `cxm_server::Client` as is; the traced run uses [`TracedClient`], the same
//! request steps (encode, frame, write, read, parse) with a span around
//! each.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;

use cxm_relational::{Database, Table};
use cxm_server::json::parse;
use cxm_server::protocol::{encode_database, encode_table};
use cxm_server::{
    read_frame, write_frame, Client, Json, TenantPolicy, TenantQuotas, DEFAULT_MAX_FRAME_BYTES,
};

use crate::trace::Tracer;

/// One connection to the server under test. `request` is the operation's
/// id in the workload; `traced` asks for spans (ignored when untraced).
pub trait Wire {
    fn register(&mut self, tenant: &str, catalog: &Database, request: u64) -> io::Result<Json>;
    fn submit(
        &mut self,
        tenant: &str,
        source: &Database,
        request: u64,
        traced: bool,
    ) -> io::Result<Json>;
    fn replace(&mut self, tenant: &str, table: &Table, request: u64) -> io::Result<Json>;
}

impl Wire for Client {
    fn register(&mut self, tenant: &str, catalog: &Database, _: u64) -> io::Result<Json> {
        Client::register(self, tenant, catalog, &TenantPolicy::default(), &TenantQuotas::default())
    }

    fn submit(&mut self, tenant: &str, source: &Database, _: u64, _: bool) -> io::Result<Json> {
        Client::submit(self, tenant, source, None)
    }

    fn replace(&mut self, tenant: &str, table: &Table, _: u64) -> io::Result<Json> {
        self.replace_table(tenant, table)
    }
}

/// The request frames `Client` sends, built the same way.
pub fn submit_frame(tenant: &str, source: &Database) -> Json {
    Json::Object(vec![
        ("op".into(), Json::str("submit")),
        ("tenant".into(), Json::str(tenant)),
        ("source".into(), encode_database(source)),
    ])
}

pub fn replace_frame(tenant: &str, table: &Table) -> Json {
    Json::Object(vec![
        ("op".into(), Json::str("replace")),
        ("tenant".into(), Json::str(tenant)),
        ("table".into(), encode_table(table)),
    ])
}

fn register_frame(tenant: &str, catalog: &Database) -> Json {
    Json::Object(vec![
        ("op".into(), Json::str("register")),
        ("tenant".into(), Json::str(tenant)),
        ("tables".into(), encode_database(catalog).get("tables").cloned().expect("tables")),
    ])
}

/// A connection that records client-side spans:
/// `client.<op>` ⊃ `client.encode` (build the frame's JSON tree),
/// `json.request_encode` (`Json::to_bytes`), `server.roundtrip` (write the
/// frame … read the reply frame) and `json.reply_parse` (`json::parse`).
#[derive(Debug)]
pub struct TracedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    pub tracer: Tracer,
}

impl TracedClient {
    pub fn connect(addr: &str, tracer: Tracer) -> io::Result<TracedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TracedClient { reader, writer: BufWriter::new(stream), tracer })
    }

    fn call(
        &mut self,
        op: &'static str,
        request: u64,
        traced: bool,
        build: impl FnOnce() -> Json,
    ) -> io::Result<Json> {
        let TracedClient { reader, writer, tracer } = self;
        let mut spans = traced.then_some(tracer);
        if let Some(t) = spans.as_deref_mut() {
            t.enter(op, request);
        }
        let frame = timed(&mut spans, "client.encode", request, build);
        let bytes = timed(&mut spans, "json.request_encode", request, || frame.to_bytes());
        let payload = timed(&mut spans, "server.roundtrip", request, || {
            write_frame(writer, &bytes)?;
            writer.flush()?;
            read_frame(reader, DEFAULT_MAX_FRAME_BYTES)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            })
        });
        let reply = payload.and_then(|payload| {
            timed(&mut spans, "json.reply_parse", request, || {
                parse(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            })
        });
        if let Some(t) = spans {
            t.exit();
        }
        reply
    }
}

fn timed<T>(
    spans: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(tracer) => tracer.time(name, request, f),
        None => f(),
    }
}

impl Wire for TracedClient {
    fn register(&mut self, tenant: &str, catalog: &Database, request: u64) -> io::Result<Json> {
        self.call("client.register", request, true, || register_frame(tenant, catalog))
    }

    fn submit(
        &mut self,
        tenant: &str,
        source: &Database,
        request: u64,
        traced: bool,
    ) -> io::Result<Json> {
        self.call("client.submit", request, traced, || submit_frame(tenant, source))
    }

    fn replace(&mut self, tenant: &str, table: &Table, request: u64) -> io::Result<Json> {
        self.call("client.replace", request, true, || replace_frame(tenant, table))
    }
}
