// Verb enum of the A2 reliability fixtures.
#pragma once

namespace fx::net
{

enum class MsgType
{
    Prepare,
    Ack,
    RdmaWrite,
    NumTypes,
};

} // namespace fx::net
