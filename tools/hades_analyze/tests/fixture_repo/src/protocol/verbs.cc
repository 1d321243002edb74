// A2 fixtures: post reliability.
#include "../net/msg.hh"

namespace fx::protocol
{

using fx::net::MsgType;

class Net
{
  public:
    void post(MsgType t, int bytes);
    void roundTrip(MsgType t);
};

class Poster
{
  public:
    void bare();         // expect: verb-reliability finding
    void reply();        // Ack is a protocol reply: clean
    void nicVerb();      // RdmaWrite rides an RC QP: clean
    void reliable();     // roundTrip: clean
    void reliablePost(); // IS the wrapper: clean
    void waived();       // justified marker: clean

  private:
    Net net_;
};

void
Poster::bare()
{
    net_.post(MsgType::Prepare, 16); // EXPECT: verb-reliability
}

void
Poster::reply()
{
    net_.post(MsgType::Ack, 16);
}

void
Poster::nicVerb()
{
    net_.post(MsgType::RdmaWrite, 64);
}

void
Poster::reliable()
{
    net_.roundTrip(MsgType::Prepare);
}

void
Poster::reliablePost()
{
    net_.post(MsgType::Prepare, 16);
}

void
Poster::waived()
{
    // hades-analyze: verb-reliability-ok (fixture: covered by a test-only resend)
    net_.post(MsgType::Prepare, 16);
}

} // namespace fx::protocol
