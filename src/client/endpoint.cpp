#include "client/endpoint.h"

#include <stdexcept>
#include <utility>

#include "serve/transport_socket.h"

namespace whisper::client {

std::string EndpointSpec::canonical() const {
  return (kind == Kind::kTcp ? "tcp:" : "unix:") + address;
}

EndpointSpec parse_endpoint(const std::string& text) {
  EndpointSpec spec;
  if (text.rfind("tcp:", 0) == 0) {
    spec.kind = EndpointSpec::Kind::kTcp;
    spec.address = text.substr(4);
  } else if (text.rfind("unix:", 0) == 0) {
    spec.kind = EndpointSpec::Kind::kUnix;
    spec.address = text.substr(5);
  } else if (!text.empty() && text[0] == '/') {
    // A bare absolute path can only be a unix socket.
    spec.kind = EndpointSpec::Kind::kUnix;
    spec.address = text;
  } else {
    spec.kind = EndpointSpec::Kind::kTcp;
    spec.address = text;
  }
  if (spec.kind == EndpointSpec::Kind::kTcp) {
    const std::size_t colon = spec.address.rfind(':');
    if (spec.address.empty() || colon == std::string::npos ||
        colon + 1 >= spec.address.size())
      throw std::invalid_argument(
          "client: endpoint '" + text +
          "' must be host:port, tcp:host:port, unix:/path, or /path");
  } else if (spec.address.empty()) {
    throw std::invalid_argument("client: endpoint '" + text +
                                "' has an empty socket path");
  }
  return spec;
}

std::vector<EndpointSpec> parse_endpoint_list(const std::string& csv) {
  std::string stripped;
  for (const char c : csv)
    if (c != ' ') stripped += c;
  if (stripped.empty())
    throw std::invalid_argument("client: --endpoints list is empty");
  // An empty element is a typo, not something to skip quietly: the list
  // order decides which endpoint owns which chunks.
  std::vector<EndpointSpec> specs;
  std::string token;
  const auto flush = [&] {
    if (token.empty())
      throw std::invalid_argument(
          "client: --endpoints has an empty element (doubled or trailing "
          "comma) in '" +
          csv + "'");
    specs.push_back(parse_endpoint(token));
    token.clear();
  };
  for (const char c : stripped) {
    if (c == ',')
      flush();
    else
      token += c;
  }
  flush();
  return specs;
}

namespace {

/// A TCP or unix-domain daemon, dialed through its transport's dial().
class SocketEndpoint : public Endpoint {
 public:
  explicit SocketEndpoint(EndpointSpec spec) : spec_(std::move(spec)) {}
  std::unique_ptr<serve::Connection> dial(int timeout_ms) override {
    if (spec_.kind == EndpointSpec::Kind::kTcp)
      return serve::TcpTransport::dial(spec_.address, timeout_ms);
    return serve::UnixSocketTransport::dial(spec_.address, timeout_ms);
  }
  std::string label() const override { return spec_.canonical(); }

 private:
  EndpointSpec spec_;
};

/// Forwards to a shared inner connection so KillSwitchEndpoint can keep a
/// weak handle for severing while the sweep worker owns the unique_ptr.
class SharedConnection : public serve::Connection {
 public:
  explicit SharedConnection(std::shared_ptr<serve::Connection> inner)
      : inner_(std::move(inner)) {}
  serve::ReadStatus read_line_for(std::string& out, int timeout_ms) override {
    return inner_->read_line_for(out, timeout_ms);
  }
  bool write_line(const std::string& line) override {
    return inner_->write_line(line);
  }
  void close() override { inner_->close(); }

 private:
  std::shared_ptr<serve::Connection> inner_;
};

}  // namespace

std::unique_ptr<Endpoint> make_endpoint(const EndpointSpec& spec) {
  return std::make_unique<SocketEndpoint>(spec);
}

LoopbackEndpoint::LoopbackEndpoint(serve::LoopbackTransport& transport,
                                   std::string label)
    : transport_(transport), label_(std::move(label)) {}

std::unique_ptr<serve::Connection> LoopbackEndpoint::dial(int timeout_ms) {
  (void)timeout_ms;  // connect() never blocks
  auto client = transport_.connect();
  // A shut-down transport hands back a dead client whose first send fails;
  // probe with a blank keep-alive line (the server skips blanks) so a
  // dead daemon surfaces here as DialError, matching the socket paths.
  if (!client->send(""))
    throw serve::DialError("cannot connect to " + label_ +
                           ": transport shut down");
  return client;
}

std::string LoopbackEndpoint::label() const { return label_; }

KillSwitchEndpoint::KillSwitchEndpoint(std::unique_ptr<Endpoint> inner)
    : inner_(std::move(inner)) {}

void KillSwitchEndpoint::kill() {
  std::shared_ptr<serve::Connection> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead_ = true;
    live = live_.lock();
  }
  if (live) live->close();
}

bool KillSwitchEndpoint::killed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

std::unique_ptr<serve::Connection> KillSwitchEndpoint::dial(int timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_)
      throw serve::DialError("cannot connect to " + inner_->label() +
                             ": endpoint killed");
  }
  std::shared_ptr<serve::Connection> conn = inner_->dial(timeout_ms);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) {
      conn->close();
      throw serve::DialError("cannot connect to " + inner_->label() +
                             ": endpoint killed");
    }
    live_ = conn;
  }
  return std::make_unique<SharedConnection>(std::move(conn));
}

std::string KillSwitchEndpoint::label() const { return inner_->label(); }

}  // namespace whisper::client
