// Protocol fault battery for the mining daemon's wire layer and request
// dispatch: torn and truncated frames, oversized declared lengths,
// malformed JSON, unknown endpoints / ops, and mid-request disconnects.
// Every fault must map onto a *named* status -- the daemon never dies and
// never answers with an unlabeled failure.  Runs entirely over in-memory
// byte streams (the reason server/protocol.h takes a ByteStream).

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "matrix/expression_matrix.h"
#include "matrix/matrix_io.h"
#include "server/json_reader.h"
#include "server/protocol.h"
#include "server/request.h"
#include "server/service.h"
#include "util/status.h"

namespace regcluster {
namespace server {
namespace {

using util::StatusCode;

// In-memory ByteStream.  `chunk` caps bytes per Read so the codecs' short-
// read loops are exercised; input exhaustion reads as EOF -- exactly what a
// peer disconnecting mid-request looks like to the daemon.
class MemoryStream : public ByteStream {
 public:
  explicit MemoryStream(std::string input, size_t chunk = 3)
      : input_(std::move(input)), chunk_(chunk) {}

  int Read(char* buf, size_t n) override {
    if (fail_reads_) return -1;
    if (pos_ >= input_.size()) return 0;  // EOF == disconnect
    const size_t take = std::min({n, chunk_, input_.size() - pos_});
    std::memcpy(buf, input_.data() + pos_, take);
    pos_ += take;
    return static_cast<int>(take);
  }

  bool Write(const char* buf, size_t n) override {
    if (fail_writes_) return false;
    output_.append(buf, n);
    return true;
  }

  const std::string& output() const { return output_; }
  void set_fail_reads(bool v) { fail_reads_ = v; }
  void set_fail_writes(bool v) { fail_writes_ = v; }

 private:
  std::string input_;
  size_t pos_ = 0;
  size_t chunk_;
  std::string output_;
  bool fail_reads_ = false;
  bool fail_writes_ = false;
};

std::string FramePrefix(uint32_t length) {
  std::string p(4, '\0');
  p[0] = static_cast<char>((length >> 24) & 0xFF);
  p[1] = static_cast<char>((length >> 16) & 0xFF);
  p[2] = static_cast<char>((length >> 8) & 0xFF);
  p[3] = static_cast<char>(length & 0xFF);
  return p;
}

// ---------------------------------------------------------------------------
// Binary framing.

TEST(Frame, RoundTripsPayloadsThroughWriteAndRead) {
  MemoryStream out("");
  ASSERT_TRUE(WriteFrame(&out, "{\"op\":\"health\"}").ok());
  ASSERT_TRUE(WriteFrame(&out, "").ok());  // zero-length frame is legal
  ASSERT_TRUE(WriteFrame(&out, std::string(1000, 'x')).ok());

  MemoryStream in(out.output());
  auto first = ReadFrame(&in);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, "{\"op\":\"health\"}");
  auto second = ReadFrame(&in);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "");
  auto third = ReadFrame(&in);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, std::string(1000, 'x'));
  // The stream now ends exactly on a frame boundary: clean EOF, not a fault.
  EXPECT_EQ(ReadFrame(&in).status().code(), StatusCode::kNotFound);
}

TEST(Frame, CleanEofBetweenFramesIsNotFound) {
  MemoryStream in("");
  const auto status = ReadFrame(&in).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(Frame, DisconnectInsideLengthPrefixIsTorn) {
  for (size_t cut : {1u, 2u, 3u}) {
    MemoryStream in(FramePrefix(8).substr(0, cut));
    const auto status = ReadFrame(&in).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "cut=" << cut;
    EXPECT_NE(status.message().find("torn"), std::string::npos);
  }
}

TEST(Frame, DisconnectInsidePayloadIsTorn) {
  // Declares 10 payload bytes, delivers 4, then the peer goes away.
  MemoryStream in(FramePrefix(10) + "abcd");
  const auto status = ReadFrame(&in).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("torn"), std::string::npos);
}

TEST(Frame, OversizedDeclaredLengthRefusedBeforeReadingPayload) {
  MemoryStream in(FramePrefix(kMaxFrameBytes + 1));
  const auto status = ReadFrame(&in).status();
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  // 0xFFFFFFFF -- the classic garbage-length attack -- same refusal.
  MemoryStream worst(std::string(4, '\xFF'));
  EXPECT_EQ(ReadFrame(&worst).status().code(), StatusCode::kOutOfRange);
}

TEST(Frame, ExactCapIsAccepted) {
  MemoryStream out("");
  ASSERT_TRUE(WriteFrame(&out, std::string(kMaxFrameBytes, 'y')).ok());
  MemoryStream in(out.output(), /*chunk=*/1 << 16);
  auto payload = ReadFrame(&in);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->size(), kMaxFrameBytes);
}

TEST(Frame, ReadErrorIsIoError) {
  MemoryStream in(FramePrefix(4));
  in.set_fail_reads(true);
  EXPECT_EQ(ReadFrame(&in).status().code(), StatusCode::kIoError);
}

TEST(Frame, WriteRefusesOversizedPayloadAndReportsSinkErrors) {
  MemoryStream out("");
  EXPECT_EQ(WriteFrame(&out, std::string(kMaxFrameBytes + 1, 'z')).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(out.output().empty());  // refused before any bytes hit the wire
  out.set_fail_writes(true);
  EXPECT_EQ(WriteFrame(&out, "x").code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// HTTP front.  The daemon consumes the transport-sniff byte itself, so every
// ReadHttpRequest call gets the head minus its first byte plus that byte.

util::StatusOr<HttpRequest> ParseHttp(const std::string& wire,
                                      size_t chunk = 3) {
  MemoryStream in(wire.substr(1), chunk);
  return ReadHttpRequest(&in, wire[0]);
}

TEST(Http, ParsesRequestLineHeadersAndBody) {
  auto request = ParseHttp(
      "POST /mine?trace=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "{\"a\":\"b\"}\r\n");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->target, "/mine?trace=1");
  EXPECT_EQ(request->body, "{\"a\":\"b\"}\r\n");
}

TEST(Http, MissingContentLengthMeansEmptyBody) {
  auto request = ParseHttp("GET /healthz HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, "GET");
  EXPECT_TRUE(request->body.empty());
}

TEST(Http, MalformedRequestLineIsCorruption) {
  for (const char* wire : {
           "GARBAGE\r\n\r\n",                 // no spaces at all
           "GET /x\r\n\r\n",                  // missing version
           "GET /x SPDY/3\r\n\r\n",           // not HTTP/1.x
           "GET /x HTTP/2\r\n\r\n",           // wrong major version
       }) {
    EXPECT_EQ(ParseHttp(wire).status().code(), StatusCode::kCorruption)
        << wire;
  }
}

TEST(Http, HeaderLineWithoutColonIsCorruption) {
  EXPECT_EQ(
      ParseHttp("GET / HTTP/1.1\r\nnocolonhere\r\n\r\n").status().code(),
      StatusCode::kCorruption);
}

TEST(Http, MalformedContentLengthIsCorruption) {
  for (const char* bad : {"abc", "-1", "1x", " ", "99999999999999999999"}) {
    const std::string wire = std::string("POST /mine HTTP/1.1\r\n") +
                             "Content-Length: " + bad + "\r\n\r\n";
    EXPECT_EQ(ParseHttp(wire).status().code(), StatusCode::kCorruption)
        << bad;
  }
}

TEST(Http, ContentLengthOverCapIsOutOfRange) {
  const std::string wire =
      "POST /mine HTTP/1.1\r\nContent-Length: " +
      std::to_string(static_cast<int64_t>(kMaxFrameBytes) + 1) + "\r\n\r\n";
  EXPECT_EQ(ParseHttp(wire).status().code(), StatusCode::kOutOfRange);
}

TEST(Http, DisconnectMidHeadIsCorruption) {
  EXPECT_EQ(ParseHttp("POST /mine HTTP/1.1\r\nContent-").status().code(),
            StatusCode::kCorruption);
}

TEST(Http, DisconnectMidBodyIsCorruption) {
  const auto status = ParseHttp(
                          "POST /mine HTTP/1.1\r\n"
                          "Content-Length: 100\r\n\r\n"
                          "{\"matrix\"")
                          .status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("closed"), std::string::npos);
}

TEST(Http, HeadOverCapIsOutOfRange) {
  std::string wire = "GET / HTTP/1.1\r\n";
  while (wire.size() <= kMaxHttpHeadBytes) wire += "X-Pad: aaaaaaaa\r\n";
  wire += "\r\n";
  EXPECT_EQ(ParseHttp(wire, /*chunk=*/512).status().code(),
            StatusCode::kOutOfRange);
}

TEST(Http, ResponseFormatting) {
  const std::string ok =
      FormatHttpResponse(200, "application/json", "{}\n", 0);
  EXPECT_EQ(ok.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(ok.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(ok.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(ok.find("Retry-After"), std::string::npos);
  EXPECT_EQ(ok.substr(ok.size() - 3), "{}\n");

  const std::string shed = FormatHttpResponse(503, "application/json",
                                              "{\"status\":\"shed\"}", 7);
  EXPECT_EQ(shed.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u);
  EXPECT_NE(shed.find("Retry-After: 7\r\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Service dispatch: every malformed request maps onto a named status and a
// structured JSON error body; the service object survives all of them.

class ServiceDispatch : public ::testing::Test {
 protected:
  ServiceDispatch() : service_(MiningService::Options{}) {}
  MiningService service_;
};

void ExpectNamedError(const ServiceResponse& r, int http_status,
                      const std::string& name) {
  EXPECT_EQ(r.http_status, http_status);
  EXPECT_EQ(r.status_name, name);
  EXPECT_NE(r.body.find("\"error_name\":\"" + name + "\""), std::string::npos)
      << r.body;
}

TEST_F(ServiceDispatch, UnknownEndpointIs404) {
  ExpectNamedError(service_.HandleHttp("GET", "/nope", ""), 404,
                   "unknown_endpoint");
  ExpectNamedError(service_.HandleHttp("DELETE", "/mine", ""), 404,
                   "unknown_endpoint");
  // GET on a POST endpoint is an unknown (method, path) pair, not a mine.
  ExpectNamedError(service_.HandleHttp("GET", "/mine", ""), 404,
                   "unknown_endpoint");
}

TEST_F(ServiceDispatch, MalformedJsonNamesTheByteOffset) {
  const ServiceResponse r =
      service_.HandleHttp("POST", "/mine", "{\"matrix\": }");
  ExpectNamedError(r, 400, "bad_json");
  EXPECT_NE(r.body.find("at byte"), std::string::npos) << r.body;
  ExpectNamedError(service_.HandleHttp("POST", "/sweep", "not json at all"),
                   400, "bad_json");
  ExpectNamedError(service_.HandleFrame("{{{{"), 400, "bad_json");
}

TEST_F(ServiceDispatch, UnknownRequestFieldIsRejectedNotIgnored) {
  ExpectNamedError(
      service_.HandleHttp("POST", "/mine",
                          "{\"matrix\":\"m.tsv\",\"max_nodez\":10}"),
      400, "bad_request");
}

TEST_F(ServiceDispatch, MissingMatrixFieldIsBadRequest) {
  ExpectNamedError(service_.HandleHttp("POST", "/mine", "{\"ming\":5}"), 400,
                   "bad_request");
}

TEST_F(ServiceDispatch, SweepWithoutSpecIsBadRequest) {
  ExpectNamedError(
      service_.HandleHttp("POST", "/sweep", "{\"matrix\":\"m.tsv\"}"), 400,
      "bad_request");
}

TEST_F(ServiceDispatch, NonexistentMatrixIsMatrixError) {
  const ServiceResponse r = service_.HandleHttp(
      "POST", "/mine", "{\"matrix\":\"/definitely/not/here.tsv\"}");
  EXPECT_GE(r.http_status, 400);
  EXPECT_EQ(r.status_name, "matrix_error");
  EXPECT_NE(r.body.find("\"error_name\":\"matrix_error\""),
            std::string::npos);
}

TEST_F(ServiceDispatch, FrameWithoutOpIsBadRequest) {
  ExpectNamedError(service_.HandleFrame("{\"matrix\":\"m.tsv\"}"), 400,
                   "bad_request");
  ExpectNamedError(service_.HandleFrame("{\"op\":42}"), 400, "bad_request");
}

TEST_F(ServiceDispatch, UnknownOpIsNamed) {
  ExpectNamedError(service_.HandleFrame("{\"op\":\"mien\"}"), 400,
                   "unknown_op");
}

// ---------------------------------------------------------------------------
// Request-option validation against a real (tiny) matrix: a well-formed
// request carrying hostile options must be rejected with a named 400
// BEFORE any model is built or cached.  In particular an unbounded minc
// must never size a model allocation -- the remote-OOM the admission
// contract promises away -- and a garbage gamma must not burn a model
// build under the cache mutex only to be rejected by Prepare().

const std::string& TinyMatrixPath() {
  static const std::string* path = [] {
    std::vector<std::vector<double>> rows;
    for (int g = 0; g < 6; ++g) {
      std::vector<double> row;
      for (int c = 0; c < 5; ++c) {
        row.push_back(10.0 * g + c * (g % 2 == 0 ? 1.0 : -1.0));
      }
      rows.push_back(std::move(row));
    }
    auto m = matrix::ExpressionMatrix::FromRows(rows);
    EXPECT_TRUE(m.ok());
    auto* p = new std::string(
        ::testing::TempDir() + std::to_string(static_cast<long>(getpid())) +
        "_proto_tiny.tsv");
    EXPECT_TRUE(matrix::SaveMatrix(*m, *p).ok());
    return p;
  }();
  return *path;
}

std::string TinyMineBody(const std::string& option_fields) {
  return "{\"matrix\":\"" + TinyMatrixPath() + "\"" +
         (option_fields.empty() ? "" : "," + option_fields) + "}";
}

TEST_F(ServiceDispatch, OversizedMincIsRejectedBeforeAnyModelBuild) {
  // The tiny matrix has 5 conditions; every minc outside [2, 5] is a named
  // 400 -- answered from the validation screen, never from an O(minc)
  // eligibility-table allocation.
  for (const char* minc : {"2000000000", "6", "1", "0", "-7"}) {
    ExpectNamedError(service_.HandleHttp(
                         "POST", "/mine",
                         TinyMineBody(std::string("\"minc\":") + minc)),
                     400, "bad_request");
  }
  // The boundary itself still mines.
  EXPECT_EQ(
      service_.HandleHttp("POST", "/mine", TinyMineBody("\"minc\":5"))
          .http_status,
      200);
}

TEST_F(ServiceDispatch, InvalidGammaOrEpsilonIsRejectedBeforeModelBuild) {
  for (const char* fields : {
           "\"gamma\":-1",                               // negative
           "\"gamma\":1.5",                              // relative > 1
           "\"gamma\":2,\"gamma_policy\":\"range\"",     // explicit relative
           "\"epsilon\":-0.25",                          // negative epsilon
           "\"ming\":0",                                 // ming floor
       }) {
    ExpectNamedError(service_.HandleHttp("POST", "/mine",
                                         TinyMineBody(fields)),
                     400, "bad_request");
  }
  // An absolute-policy gamma > 1 is legal and must still mine.
  EXPECT_EQ(service_.HandleHttp(
                    "POST", "/mine",
                    TinyMineBody(
                        "\"gamma\":2.5,\"gamma_policy\":\"absolute\""))
                .http_status,
            200);
}

TEST_F(ServiceDispatch, SweepPointsWithHostileOptionsDoNotKillTheSweep) {
  // A sweep whose minc axis runs past the condition count: the valid
  // points mine, the impossible ones are recorded per-run, and nothing
  // allocates O(minc).
  const ServiceResponse r = service_.HandleHttp(
      "POST", "/sweep",
      TinyMineBody("\"spec\":\"minc=4:2000000000:1999999996\""));
  EXPECT_EQ(r.http_status, 200) << r.body;
  const ServiceResponse health = service_.HandleHttp("GET", "/healthz", "");
  EXPECT_EQ(health.http_status, 200);
}

TEST_F(ServiceDispatch, SweepPointsWithEqualButDistinctGammasBothMine) {
  // 0 and -0.0 compare equal but are distinct gamma specs (models and the
  // semantic hash key on the bits): each point must get a model built for
  // its own spec, never the other's, and mine like `mine --sweep` does.
  const ServiceResponse r = service_.HandleHttp(
      "POST", "/sweep",
      TinyMineBody("\"ming\":2,\"minc\":3,"
                   "\"spec\":\"[{\\\"gamma\\\":0},{\\\"gamma\\\":-0.0}]\""));
  ASSERT_EQ(r.http_status, 200) << r.body;
  EXPECT_EQ(r.body.find("different gamma spec"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"runs_executed\": 2"), std::string::npos)
      << r.body;
}

TEST_F(ServiceDispatch, OversizedSweepSpecIsRejectedBeforeExpansion) {
  // A few dozen bytes of spec naming 1e12 (or 1e7) points: a 400 from the
  // spec's counted size, never an expansion up to the point limit.
  for (const char* spec : {"gamma=0:1:1e-4,eps=0:1:1e-4,ming=1:10000:1",
                           "gamma=0:1:1e-7"}) {
    ExpectNamedError(
        service_.HandleHttp(
            "POST", "/sweep",
            TinyMineBody(std::string("\"spec\":\"") + spec + "\"")),
        400, "bad_request");
  }
  EXPECT_EQ(service_.HandleHttp("GET", "/healthz", "").http_status, 200);
}

TEST_F(ServiceDispatch, HealthAndMetricsStayUpAfterFaults) {
  // A storm of malformed requests must leave the service answering.
  for (int i = 0; i < 50; ++i) {
    service_.HandleHttp("POST", "/mine", "{bad");
    service_.HandleFrame("\x01\x02\x03");
    service_.HandleHttp("GET", "/wat", "");
  }
  const ServiceResponse health = service_.HandleHttp("GET", "/healthz", "");
  EXPECT_EQ(health.http_status, 200);
  EXPECT_EQ(health.body, "{\"status\":\"ok\"}\n");
  const ServiceResponse metrics = service_.HandleHttp("GET", "/metrics", "");
  EXPECT_EQ(metrics.http_status, 200);
  EXPECT_NE(metrics.body.find("regcluster_server_requests"),
            std::string::npos);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4");
}

TEST_F(ServiceDispatch, QueryStringsAreStrippedFromTargets) {
  EXPECT_EQ(service_.HandleHttp("GET", "/healthz?verbose=1", "").http_status,
            200);
  EXPECT_EQ(service_.HandleHttp("GET", "/metrics?format=prom", "").http_status,
            200);
}

// ---------------------------------------------------------------------------
// JSON reader edge cases that double as request-body faults.

TEST(JsonReader, DepthBombIsRefusedNotOverflowed) {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += "[";
  EXPECT_FALSE(ParseJson(bomb).ok());
}

TEST(JsonReader, DuplicateKeysAreRejected) {
  EXPECT_FALSE(ParseJson("{\"a\":1,\"a\":2}").ok());
}

TEST(JsonReader, TrailingGarbageIsRejected) {
  EXPECT_FALSE(ParseJson("{\"a\":1} extra").ok());
}

TEST(JsonReader, RequestFieldsWithWrongTypesAreInvalidArgument) {
  core::MinerOptions defaults;
  auto body = ParseJson("{\"matrix\":\"m\",\"ming\":\"five\"}");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(ParseMineRequest(*body, defaults).status().code(),
            StatusCode::kInvalidArgument);
  auto frac = ParseJson("{\"matrix\":\"m\",\"minc\":2.5}");
  ASSERT_TRUE(frac.ok());
  EXPECT_EQ(ParseMineRequest(*frac, defaults).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace server
}  // namespace regcluster
