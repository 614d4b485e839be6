#pragma once
// DASH origin server application: serves the manifest and chunk URLs of
// one Video over an HttpServer. Knows nothing about MP-DASH (the paper's
// server-side change is confined to the MPTCP stack).

#include "dash/manifest.h"
#include "dash/video.h"
#include "http/server.h"

namespace mpdash {

class DashServer {
 public:
  DashServer(MptcpEndpoint& endpoint, Video video);

  const Video& video() const { return video_; }
  // The underlying HTTP engine — the fault layer drives its stall/drop
  // hooks through this.
  HttpServer& http() { return http_; }

 private:
  HttpResponse handle(const HttpRequest& req);

  Video video_;
  HttpServer http_;
};

}  // namespace mpdash
